package campaign

import (
	"bytes"
	"testing"

	"dmafault/internal/obs"
)

// TestEngineObsDoesNotPerturbDeterminism is the tentpole's hard constraint:
// attaching a tracer changes nothing in the deterministic artifacts. The
// summary JSON and the merged metric exposition are byte-identical with obs
// on and obs off, at worker counts 1, 4, and 16.
func TestEngineObsDoesNotPerturbDeterminism(t *testing.T) {
	set := testSet()
	var wantJSON, wantText []byte
	for _, workers := range []int{1, 4, 16} {
		for _, traced := range []bool{false, true} {
			eng := Engine{Workers: workers}
			var col obs.Collector
			if traced {
				eng.Obs = obs.NewTracer(col.Sink(), obs.NewSpanMetrics().Sink())
			}
			sum, err := eng.Run(set)
			if err != nil {
				t.Fatalf("workers=%d traced=%v: %v", workers, traced, err)
			}
			js, err := sum.JSON()
			if err != nil {
				t.Fatal(err)
			}
			text := sum.MetricsText()
			if wantJSON == nil {
				wantJSON, wantText = js, text
				continue
			}
			if !bytes.Equal(js, wantJSON) {
				t.Errorf("workers=%d traced=%v: summary JSON differs from baseline", workers, traced)
			}
			if !bytes.Equal(text, wantText) {
				t.Errorf("workers=%d traced=%v: metric exposition differs from baseline", workers, traced)
			}
			if traced && len(col.Spans()) == 0 {
				t.Errorf("workers=%d: tracer attached but no spans emitted", workers)
			}
		}
	}
}

// TestEngineSpanHierarchy pins the span shape: one campaign root, one
// scenario span per executed scenario parented under it, attempt spans under
// each scenario, and retry-backoff spans when the engine actually backs off.
func TestEngineSpanHierarchy(t *testing.T) {
	// alloc-fail@1 fires at the same ordinal on every attempt, so this
	// scenario deterministically exhausts all DefaultMaxRetries retries.
	set := []Scenario{
		{Kind: KindWindowLadder, Seed: 7, Driver: "correct", Mode: "strict"},
		{Kind: KindWindowLadder, Seed: 7, FaultSpec: "alloc-fail@1"},
	}
	var col obs.Collector
	sum, err := Engine{Workers: 2, Obs: obs.NewTracer(col.Sink())}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	spans := col.Spans()
	byName := map[string][]obs.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["campaign"]) != 1 {
		t.Fatalf("campaign spans = %d, want 1", len(byName["campaign"]))
	}
	root := byName["campaign"][0]
	if root.Attrs["scenarios"] != "2" || root.Outcome() != "ok" {
		t.Errorf("root span = %+v", root)
	}
	if len(byName["scenario"]) != 2 {
		t.Fatalf("scenario spans = %d, want 2", len(byName["scenario"]))
	}
	scenarioID := map[uint64]obs.Span{}
	for _, s := range byName["scenario"] {
		if s.Parent != root.ID {
			t.Errorf("scenario span %+v not parented under campaign", s)
		}
		if s.Attrs["kind"] != string(KindWindowLadder) {
			t.Errorf("scenario span missing kind attr: %+v", s)
		}
		scenarioID[s.ID] = s
	}
	// 1 attempt for the clean scenario + 1+DefaultMaxRetries for the
	// transient one, each parented under its scenario span.
	if got, want := len(byName["attempt"]), 2+DefaultMaxRetries; got != want {
		t.Fatalf("attempt spans = %d, want %d", got, want)
	}
	for _, s := range byName["attempt"] {
		if _, ok := scenarioID[s.Parent]; !ok {
			t.Errorf("attempt span %+v not parented under a scenario", s)
		}
	}
	if got := len(byName["retry-backoff"]); got != DefaultMaxRetries {
		t.Errorf("retry-backoff spans = %d, want %d", got, DefaultMaxRetries)
	}
	// The span outcomes agree with the deterministic results.
	if sum.Results[1].Retries != DefaultMaxRetries {
		t.Fatalf("fixture drifted: transient scenario retried %d times", sum.Results[1].Retries)
	}
	for _, s := range byName["scenario"] {
		want := "ok"
		if s.Attrs["index"] == "1" {
			want = "error"
		}
		if s.Outcome() != want {
			t.Errorf("scenario %s outcome = %q, want %q", s.Attrs["index"], s.Outcome(), want)
		}
	}
}
