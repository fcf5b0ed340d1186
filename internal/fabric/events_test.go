package fabric

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmafault/internal/obs"
)

// TestEventsLateSubscriberGetsStatus: a follower that connects after the
// campaign ended (or was too slow to receive the published status) still
// gets the terminal status — the hub is closed by then, so it must come
// from the status PublishStatus recorded. Without it fabrictop reports an
// empty stream and falls back to polling a finished coordinator.
func TestEventsLateSubscriberGetsStatus(t *testing.T) {
	c := New(Config{Hub: obs.NewHub()})
	c.PublishStatus("done")
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/fabric/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := string(body)
	if !strings.HasPrefix(got, "event: fleet\n") {
		t.Errorf("stream does not open with the fleet document:\n%s", got)
	}
	if !strings.HasSuffix(got, "event: status\ndata: {\"status\":\"done\"}\n\n") {
		t.Fatalf("late subscriber got no terminal status:\n%s", got)
	}
}
