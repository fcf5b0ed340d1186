package faultinject_test

import (
	"math"
	"testing"

	"dmafault/internal/faultinject"
	"dmafault/internal/netchaos"
)

// FuzzParseSpec drives the shared spec grammar through both vocabularies —
// faultinject's hardware classes and netchaos's transport classes. Specs
// reach it from flags and from /v1 scenario documents, so whatever the
// input it must not panic, and every plan it accepts must be one the
// engine can honor: at least one rule, finite rates in [0,1], and 1-based
// points.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"dma-corrupt:0.01,alloc-fail:0.002,scenario-panic:0.1",
		"dma-corrupt:0.01,alloc-fail:0.002",
		"scenario-panic@1",
		"scenario-stall@1",
		"iommu-stall:0.5@2",
		"ring-drop@1+4+9",
		"dma-drop:1, scenario-panic@1",
		"bitflip:0.25,truncate:0.08,http-503:0.08,conn-drop:0.05,partition:0.01",
		"bitflip:0.25,truncate:0.2,conn-drop:0.05,http-503:0.03,partition:0.01",
		"http-503:0.05,conn-drop:0.03,truncate:0.03",
		"bitflip:0.3,http-503:0.1@2+5,partition@40",
		"dma-corrupt:NaN",
		"latency:-1",
		"  , ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if p, err := faultinject.ParseSpec(spec); err == nil {
			checkRules(t, spec, p.Rules)
		}
		if p, err := netchaos.ParseSpec(spec); err == nil {
			checkRules(t, spec, p.Rules)
		}
	})
}

func checkRules[C faultinject.ClassSet](t *testing.T, spec string, rules []faultinject.RuleOf[C]) {
	t.Helper()
	if len(rules) == 0 {
		t.Fatalf("ParseSpec(%q) accepted a plan with no rules", spec)
	}
	for _, r := range rules {
		if math.IsNaN(r.Rate) || math.IsInf(r.Rate, 0) || r.Rate < 0 || r.Rate > 1 {
			t.Fatalf("ParseSpec(%q) accepted rate %v", spec, r.Rate)
		}
		for _, pt := range r.Points {
			if pt < 1 {
				t.Fatalf("ParseSpec(%q) accepted point %d", spec, pt)
			}
		}
	}
}
