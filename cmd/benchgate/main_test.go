package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCompare runs the gates on two fixture artifacts, then on edited
// copies of the newer one. The newer fixture comes from a 2-core host, so
// its names carry the -2 GOMAXPROCS suffix the older one lacks. The
// fixtures differ only within the gates' tolerance on gated metrics; the
// large moves are on metrics or benchmarks no gate watches (BootOnce
// ns/op, fabric B/op, KmallocKfree, and a workers=16 arm the old artifact
// lacks).
func TestCompare(t *testing.T) {
	oldDoc, err := load("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		edit        func(metrics)
		nsThreshold float64
		wantFail    []string // metrics of the rows that must regress
	}{
		{name: "fixtures pass", nsThreshold: 0.20},
		{name: "tighter ns gate", nsThreshold: 0.10, wantFail: []string{"BenchmarkFabricThroughput/workers=2 ns/op"}},
		{
			name:        "B/op regression",
			edit:        func(m metrics) { m["BenchmarkBootOnce"]["B/op"] = 1200000 },
			nsThreshold: 0.20,
			wantFail:    []string{"BenchmarkBootOnce B/op"},
		},
		{
			name:        "allocs/op regression",
			edit:        func(m metrics) { m["BenchmarkCampaignThroughput/workers=1"]["allocs/op"] = 44001 },
			nsThreshold: 0.20,
			wantFail:    []string{"BenchmarkCampaignThroughput/workers=1 allocs/op"},
		},
		{
			name:        "allocation gate exactly at tolerance",
			edit:        func(m metrics) { m["BenchmarkCampaignThroughput/workers=1"]["allocs/op"] = 44000 },
			nsThreshold: 0.20,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newDoc, err := load("testdata/new.json")
			if err != nil {
				t.Fatal(err)
			}
			if tc.edit != nil {
				tc.edit(newDoc)
			}
			rows, failed := compare(oldDoc, newDoc, gates(tc.nsThreshold))
			// Two shared benchmarks under the allocation gates (two
			// metrics each) and one under the ns/op gate.
			var report, regressed []string
			for _, r := range rows {
				report = append(report, r.String())
				if r.regressed() {
					regressed = append(regressed, r.name+" "+r.metric)
				}
			}
			if len(rows) != 5 {
				t.Fatalf("got %d rows, want 5:\n%s", len(rows), strings.Join(report, "\n"))
			}
			if failed != (len(tc.wantFail) > 0) || strings.Join(regressed, ",") != strings.Join(tc.wantFail, ",") {
				t.Errorf("failed=%v, regressed %q; want %q\n%s", failed, regressed, tc.wantFail, strings.Join(report, "\n"))
			}
		})
	}
}

func TestParseRejectsEmptyArtifact(t *testing.T) {
	data, err := json.Marshal(document{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parse(data); err == nil {
		t.Error("artifact without benchmarks accepted")
	}
}
