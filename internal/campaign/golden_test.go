package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmafault/internal/attacks"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSet is the tiny fixed campaign whose wire format the golden files
// pin. Keep it small: the point is the encoding, not the statistics.
func goldenSet() []Scenario {
	return []Scenario{
		{Kind: KindWindowLadder, Seed: 7, Driver: "correct", Mode: "strict"},
		{Kind: KindPoisonedTX, Seed: 11},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/campaign/ -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; diff the file or -update if intentional.\n--- got ---\n%.2000s", name, got)
	}
}

// TestGoldenSummaryWireFormat pins the campaign summary's JSON encoding and
// the merged metric dump's Prometheus text exposition. Any field rename,
// reorder, or value drift shows up as a golden diff.
func TestGoldenSummaryWireFormat(t *testing.T) {
	sum, err := Engine{Workers: 2}.Run(goldenSet())
	if err != nil {
		t.Fatal(err)
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary.golden.json", append(js, '\n'))
	checkGolden(t, "metrics.golden.prom", sum.MetricsText())
}

// TestGoldenAttackResultJSON pins attacks.Result's snake_case field names
// with a hand-built value, so a tag typo cannot slip through as "both sides
// drifted together".
func TestGoldenAttackResultJSON(t *testing.T) {
	r := attacks.Result{
		Name:         "poisoned-tx",
		Steps:        []string{"map", "poison", "release"},
		Success:      true,
		Escalations:  2,
		DroppedSteps: 3,
		Detail:       map[string]string{"window_path": "stale-iotlb"},
	}
	got, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "name": "poisoned-tx",
  "steps": [
    "map",
    "poison",
    "release"
  ],
  "success": true,
  "escalations": 2,
  "dropped_steps": 3,
  "detail": {
    "window_path": "stale-iotlb"
  }
}`
	if string(got) != want {
		t.Errorf("attacks.Result wire format drifted:\n%s\n--- want ---\n%s", got, want)
	}
}

// TestMetricsDumpIdenticalAcrossWorkers is the tentpole acceptance
// criterion: the merged campaign metric dump is byte-identical at worker
// counts 1, 4, and 16, in both encodings.
func TestMetricsDumpIdenticalAcrossWorkers(t *testing.T) {
	set := testSet()
	var wantText, wantJSON []byte
	for _, workers := range []int{1, 4, 16} {
		sum, err := Engine{Workers: workers}.Run(set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Metrics == nil {
			t.Fatal("summary carries no metric dump")
		}
		text := sum.MetricsText()
		js, err := sum.Metrics.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if wantText == nil {
			wantText, wantJSON = text, js
			continue
		}
		if !bytes.Equal(text, wantText) {
			t.Errorf("workers=%d: metric text differs from workers=1", workers)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Errorf("workers=%d: metric JSON differs from workers=1", workers)
		}
	}
	// The dump must carry the campaign roll-up and the machine families the
	// scenarios booted — including the deferred flush-queue counters the
	// EXPERIMENTS.md walkthrough reads.
	text := string(wantText)
	for _, fam := range []string{
		"campaign_scenarios_total 8",
		"campaign_virtual_nanos_bucket",
		"iommu_strict_invalidations_total",
		"iommu_maps_total",
		"mem_page_allocs_total",
		"netstack_rx_packets_total",
		"dkasan_events_total",
		"trace_events_retained",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("merged dump missing %q", fam)
		}
	}
}

// TestSkipMetricsAblation pins the benchmark's control arm: with
// skip_metrics on every scenario the results carry no snapshots and the
// summary dump reduces to the campaign_* roll-up.
func TestSkipMetricsAblation(t *testing.T) {
	set := goldenSet()
	for i := range set {
		set[i].SkipMetrics = true
	}
	sum, err := Engine{Workers: 2}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sum.Results {
		if r.Snapshot != nil {
			t.Errorf("%s: snapshot captured despite SkipMetrics", r.ID)
		}
	}
	if sum.Metrics == nil || sum.Metrics.Total("campaign_scenarios_total") != 2 {
		t.Error("campaign roll-up families missing under SkipMetrics")
	}
	if sum.Metrics.Total("iommu_maps_total") != 0 {
		t.Error("machine families leaked into a SkipMetrics dump")
	}
}
