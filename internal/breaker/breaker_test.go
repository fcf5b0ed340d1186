package breaker

import "testing"

// TestLifecycle walks one breaker through every transition: strikes up to
// the threshold, the half-open wait, a probe that fails and re-arms the
// wait, an aborted probe, and a clean probe that closes it.
func TestLifecycle(t *testing.T) {
	p := Policy{Threshold: 2, Wait: 10}
	var s State
	if s.Strike(p, 0) || s.Open() {
		t.Fatal("one strike opened a threshold-2 breaker")
	}
	if !s.Strike(p, 5) || !s.Open() || s.Strikes() != 2 {
		t.Fatalf("second strike did not open: %+v", s)
	}
	if s.Strike(p, 6) {
		t.Fatal("an open breaker tripped again")
	}
	if s.Ready(p, 14) || s.Remaining(p, 14) != 1 {
		t.Fatalf("ready before the wait elapsed: remaining %d", s.Remaining(p, 14))
	}
	if !s.Ready(p, 15) {
		t.Fatal("not ready once the wait elapsed")
	}
	s.StartProbe()
	if s.Ready(p, 100) || !s.Probing() {
		t.Fatal("a second probe was allowed while one is in flight")
	}

	s.Resolve(false, 20) // the probe failed: re-open at 20, no new strike
	if !s.Open() || s.Probing() || s.Strikes() != 3 || s.Ready(p, 29) || !s.Ready(p, 30) {
		t.Fatalf("failed probe did not re-arm the wait at 20: %+v", s)
	}

	s.StartProbe()
	s.AbortProbe() // withdrawn without a verdict: the wait stays elapsed
	if !s.Ready(p, 30) {
		t.Fatal("aborted probe wedged the half-open slot")
	}

	s.StartProbe()
	s.Resolve(true, 31)
	if s != (State{}) {
		t.Fatalf("clean probe left state behind: %+v", s)
	}
}

// TestResolveOKClearsStrikesWhileClosed: a verdict of ok resets strikes on
// a closed breaker too — the fabric's "any verified delivery" rule.
func TestResolveOKClearsStrikesWhileClosed(t *testing.T) {
	p := Policy{Threshold: 2}
	var s State
	s.Strike(p, 0)
	s.Resolve(true, 1)
	if s.Strike(p, 2) {
		t.Fatal("strikes survived an ok verdict")
	}
}
