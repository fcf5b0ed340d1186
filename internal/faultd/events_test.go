package faultd

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sseEvent is one decoded frame from a GET /v1/campaigns/{id}/events stream.
type sseEvent struct {
	Type string
	Data string
}

// readSSE consumes the stream until a "status" frame, the limit, or EOF.
func readSSE(t *testing.T, body *bufio.Scanner, limit int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var event string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			out = append(out, sseEvent{Type: event, Data: strings.TrimPrefix(line, "data: ")})
			if event == "status" || len(out) >= limit {
				return out
			}
		}
	}
	if err := body.Err(); err != nil {
		t.Fatalf("sse stream: %v", err)
	}
	return out
}

// countTypes tallies frames per event type.
func countTypes(evs []sseEvent) map[string]int {
	n := map[string]int{}
	for _, e := range evs {
		n[e.Type]++
	}
	return n
}

// TestEventsStreamEndToEnd is the SSE acceptance test: a live job's stream
// carries at least one progress heartbeat, per-scenario result records,
// span completions, and exactly one terminal status frame, after which the
// server closes the stream.
func TestEventsStreamEndToEnd(t *testing.T) {
	srv := NewServer()
	srv.HeartbeatInterval = 10 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(3)); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	evs := readSSE(t, bufio.NewScanner(resp.Body), 10_000)
	n := countTypes(evs)
	if n["progress"] < 1 {
		t.Errorf("stream carried %d progress heartbeats, want >= 1", n["progress"])
	}
	if n["result"] < 1 {
		t.Errorf("stream carried %d result records, want >= 1 (types: %v)", n["result"], n)
	}
	if n["span"] < 1 {
		t.Errorf("stream carried %d span completions, want >= 1 (types: %v)", n["span"], n)
	}
	if n["status"] != 1 {
		t.Fatalf("stream carried %d status frames, want exactly 1 (types: %v)", n["status"], n)
	}
	last := evs[len(evs)-1]
	if last.Type != "status" {
		t.Fatalf("stream did not end on status: %+v", last)
	}
	var st jobEvent
	if err := json.Unmarshal([]byte(last.Data), &st); err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.ScenariosDone != 3 {
		t.Fatalf("terminal frame %+v, want done 3/3", st)
	}
	// The server closed the stream after the terminal frame.
	if more := readSSE(t, bufio.NewScanner(resp.Body), 1); len(more) != 0 {
		t.Fatalf("stream stayed open past status: %+v", more)
	}
	srv.Wait()
}

// TestEventsFinishedJobYieldsImmediateStatus: subscribing to an
// already-terminal job gets its snapshot and status straight away — no
// waiting for heartbeats that will never come.
func TestEventsFinishedJobYieldsImmediateStatus(t *testing.T) {
	srv := NewServer()
	srv.Synchronous = true
	srv.HeartbeatInterval = time.Hour // a tick must never be needed
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", `{"preset":"ladder","n":2,"seed":7,"workers":1}`); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/campaigns/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, bufio.NewScanner(resp.Body), 10)
	n := countTypes(evs)
	if n["status"] != 1 || evs[len(evs)-1].Type != "status" {
		t.Fatalf("finished-job stream: %+v", evs)
	}
}

// TestEventsClientDisconnectMidJob pins the disconnect path: a subscriber
// that walks away mid-job is unsubscribed (the hub drops to zero
// subscribers), and the job itself runs to completion unperturbed.
func TestEventsClientDisconnectMidJob(t *testing.T) {
	srv := NewServer()
	srv.HeartbeatInterval = 10 * time.Millisecond
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := post(t, ts.URL+"/v1/campaigns", stallBody(4)); code != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/campaigns/1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one frame to prove the stream was live, then vanish.
	if evs := readSSE(t, bufio.NewScanner(resp.Body), 1); len(evs) != 1 {
		t.Fatalf("no frame before disconnect: %+v", evs)
	}
	cancel()
	resp.Body.Close()

	srv.mu.Lock()
	job := srv.jobsByID[1]
	srv.mu.Unlock()
	if job == nil {
		t.Fatal("job 1 missing")
	}
	deadline := time.Now().Add(10 * time.Second)
	for job.hub.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("hub still has %d subscribers after disconnect", job.hub.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := pollJob(t, ts.URL+"/v1/campaigns/1"); got.Status != StatusDone {
		t.Fatalf("job after subscriber disconnect: %+v", got)
	}
	srv.Wait()
}

// TestEventsRejectsUnknownAndMalformedIDs.
func TestEventsRejectsUnknownAndMalformedIDs(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, _ := get(t, ts.URL+"/v1/campaigns/99/events"); code != http.StatusNotFound {
		t.Errorf("unknown job events: %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/v1/campaigns/xyz/events"); code != http.StatusBadRequest {
		t.Errorf("malformed id events: %d, want 400", code)
	}
}
