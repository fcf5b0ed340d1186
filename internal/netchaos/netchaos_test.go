package netchaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// TestParseSpec pins the grammar: rates, points, both, and the error arms.
func TestParseSpec(t *testing.T) {
	plan, err := ParseSpec("bitflip:0.3,http-503:0.1@2+5,partition@40")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Rules) != 3 {
		t.Fatalf("rules = %+v", plan.Rules)
	}
	if r := plan.Rules[0]; r.Class != BitFlip || r.Rate != 0.3 || r.Points != nil {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r := plan.Rules[1]; r.Class != HTTP503 || r.Rate != 0.1 || len(r.Points) != 2 || r.Points[0] != 2 {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r := plan.Rules[2]; r.Class != Partition || r.Rate != 0 || len(r.Points) != 1 || r.Points[0] != 40 {
		t.Fatalf("rule 2 = %+v", r)
	}
	for _, bad := range []string{"", "nope:0.1", "latency:2", "latency:-1", "conn-drop@0", "bitflip", "bitflip:NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestDeterministicDecisions: two transports compiled from the same plan
// draw identical per-ordinal decisions; a different seed draws a different
// stream.
func TestDeterministicDecisions(t *testing.T) {
	plan, err := ParseSpec("conn-drop:0.5")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 7
	draw := func(tr *Transport, n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			tr.mu.Lock()
			if tr.s.Fire(ConnDrop) {
				b.WriteByte('x')
			} else {
				b.WriteByte('.')
			}
			tr.mu.Unlock()
		}
		return b.String()
	}
	a := draw(NewTransport(plan, nil), 64)
	b := draw(NewTransport(plan, nil), 64)
	if a != b {
		t.Fatalf("same plan diverged:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "x") || !strings.Contains(a, ".") {
		t.Fatalf("rate 0.5 drew a degenerate stream %q", a)
	}
	other := *plan
	other.Seed = 8
	if c := draw(NewTransport(&other, nil), 64); c == a {
		t.Fatal("different seed drew the identical stream")
	}
}

// chaosBackend is a well-behaved origin the chaos wraps.
func chaosBackend(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, tr *Transport, url string) (*http.Response, []byte, error) {
	t.Helper()
	c := &http.Client{Transport: tr}
	resp, err := c.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp, nil, err
	}
	return resp, data, nil
}

// TestInjected503CarriesBothRetryAfterForms: consecutive injected 503s
// alternate delta-seconds and HTTP-date Retry-After headers.
func TestInjected503CarriesBothRetryAfterForms(t *testing.T) {
	ts := chaosBackend(t, "ok")
	plan := &Plan{Rules: []Rule{{Class: HTTP503, Points: []uint64{1, 2}}}}
	tr := NewTransport(plan, nil)

	var forms []bool // true = HTTP-date
	for i := 0; i < 2; i++ {
		resp, body, err := get(t, tr, ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if !strings.Contains(string(body), "injected 503") {
			t.Fatalf("request %d body: %q", i, body)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatalf("request %d: no Retry-After", i)
		}
		forms = append(forms, !isDeltaSeconds(ra))
	}
	if forms[0] == forms[1] {
		t.Fatalf("both injected 503s used the same Retry-After form: %v", forms)
	}
	// The third request reaches the origin untouched.
	resp, body, err := get(t, tr, ts.URL)
	if err != nil || resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("pass-through: %v %v %q", resp, err, body)
	}
}

// isDeltaSeconds reports whether a Retry-After value is the bare-seconds
// form (all digits) rather than an HTTP-date.
func isDeltaSeconds(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// TestTruncateTearsJSON: a truncated body is no longer a decodable document.
func TestTruncateTearsJSON(t *testing.T) {
	ts := chaosBackend(t, `{"id":123456,"status":"done","scenarios_total":999999}`)
	plan := &Plan{Rules: []Rule{{Class: Truncate, Points: []uint64{1}}}}
	tr := NewTransport(plan, nil)
	_, body, err := get(t, tr, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != DefaultTruncateAt {
		t.Fatalf("truncated body is %d bytes, want %d", len(body), DefaultTruncateAt)
	}
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("truncated body still decodes: %q", body)
	}
}

// TestBitFlipKeepsJSONValidButChangesIt: the flipped body decodes fine and
// differs from the original — corruption that only an integrity check can
// catch.
func TestBitFlipKeepsJSONValidButChangesIt(t *testing.T) {
	orig := `{"id":123456,"seed":20212021,"scenarios_total":999999}`
	ts := chaosBackend(t, orig)
	plan := &Plan{Seed: 3, Rules: []Rule{{Class: BitFlip, Points: []uint64{1}}}}
	tr := NewTransport(plan, nil)
	_, body, err := get(t, tr, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) == orig {
		t.Fatal("bitflip left the body untouched")
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("flipped body no longer decodes: %v (%q)", err, body)
	}
	if len(body) != len(orig) {
		t.Fatalf("flip changed the length: %d vs %d", len(body), len(orig))
	}
	diff := 0
	for i := range body {
		if body[i] != orig[i] {
			diff++
			if body[i]^orig[i] != 1 {
				t.Fatalf("byte %d changed by more than the low bit: %q vs %q", i, body[i], orig[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want exactly 1", diff)
	}
}

// TestPartitionSwallowsWindow: one Partition hit blacks out the host for
// PartitionLen requests, then traffic resumes.
func TestPartitionSwallowsWindow(t *testing.T) {
	ts := chaosBackend(t, "ok")
	plan := &Plan{Rules: []Rule{{Class: Partition, Points: []uint64{1}}}}
	tr := NewTransport(plan, nil)
	tr.PartitionLen = 3
	for i := 0; i < 3; i++ {
		_, _, err := get(t, tr, ts.URL)
		var ce *Error
		if !errors.As(err, &ce) || ce.Class != Partition {
			t.Fatalf("request %d inside the partition: %v", i, err)
		}
	}
	resp, body, err := get(t, tr, ts.URL)
	if err != nil || resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("after the partition: %v %v %q", resp, err, body)
	}
	if ops, hits := tr.Counts(Partition); hits != 1 || ops == 0 {
		t.Fatalf("partition counts = %d/%d, want 1 hit", hits, ops)
	}
}

// TestConnDropSurfacesAsTransportError: the client sees a *url.Error
// wrapping the injected drop, like any real dial failure.
func TestConnDropSurfacesAsTransportError(t *testing.T) {
	ts := chaosBackend(t, "ok")
	plan := &Plan{Rules: []Rule{{Class: ConnDrop, Points: []uint64{1}}}}
	tr := NewTransport(plan, nil)
	_, _, err := get(t, tr, ts.URL)
	var ue *url.Error
	var ce *Error
	if !errors.As(err, &ue) || !errors.As(err, &ce) || ce.Class != ConnDrop {
		t.Fatalf("err = %v", err)
	}
}

// TestLatencyDelaysRequest: a Latency hit sleeps before forwarding.
func TestLatencyDelaysRequest(t *testing.T) {
	ts := chaosBackend(t, "ok")
	plan := &Plan{Rules: []Rule{{Class: Latency, Points: []uint64{1}}}}
	tr := NewTransport(plan, nil)
	tr.Latency = 50 * time.Millisecond
	start := time.Now()
	if _, _, err := get(t, tr, ts.URL); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Fatalf("request took %v, injected latency was 50ms", d)
	}
	start = time.Now()
	if _, _, err := get(t, tr, ts.URL); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("un-injected request took %v", d)
	}
}

// TestNilPlanPassesThrough: NewTransport(nil, …) forwards untouched.
func TestNilPlanPassesThrough(t *testing.T) {
	ts := chaosBackend(t, "ok")
	tr := NewTransport(nil, nil)
	resp, body, err := get(t, tr, ts.URL)
	if err != nil || resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("pass-through: %v %v %q", resp, err, body)
	}
}
