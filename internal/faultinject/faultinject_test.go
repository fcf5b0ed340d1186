package faultinject

import (
	"testing"

	"dmafault/internal/metrics"
)

func plan(rules ...Rule) *Plan { return &Plan{Seed: 2021, Rules: rules} }

func TestParseSpecForms(t *testing.T) {
	cases := []struct {
		spec string
		want []Rule
	}{
		{"dma-corrupt:0.01", []Rule{{Class: DMACorrupt, Rate: 0.01}}},
		{"alloc-fail@3", []Rule{{Class: AllocFail, Points: []uint64{3}}}},
		{"ring-drop@1+4+9", []Rule{{Class: RingDrop, Points: []uint64{1, 4, 9}}}},
		{"iommu-stall:0.5@2", []Rule{{Class: IOMMUStall, Rate: 0.5, Points: []uint64{2}}}},
		{"dma-drop:1, scenario-panic@1", []Rule{
			{Class: DMADrop, Rate: 1},
			{Class: ScenarioPanic, Points: []uint64{1}},
		}},
	}
	for _, c := range cases {
		p, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.spec, err)
		}
		if len(p.Rules) != len(c.want) {
			t.Fatalf("ParseSpec(%q): %d rules, want %d", c.spec, len(p.Rules), len(c.want))
		}
		for i, r := range p.Rules {
			w := c.want[i]
			if r.Class != w.Class || r.Rate != w.Rate || len(r.Points) != len(w.Points) {
				t.Fatalf("ParseSpec(%q) rule %d = %+v, want %+v", c.spec, i, r, w)
			}
			for j := range r.Points {
				if r.Points[j] != w.Points[j] {
					t.Fatalf("ParseSpec(%q) rule %d points = %v, want %v", c.spec, i, r.Points, w.Points)
				}
			}
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",                 // no rules
		"  , ,",            // no rules after trimming
		"warp-core:0.1",    // unknown class
		"dma-corrupt:2.0",  // rate out of range
		"dma-corrupt:-0.1", // negative rate
		"dma-corrupt",      // neither rate nor points
		"alloc-fail@0",     // points are 1-based
		"alloc-fail@x",     // non-numeric point
		"dma-corrupt:x",    // non-numeric rate
		"dma-corrupt:NaN",  // ParseFloat accepts NaN; no comparison rejects it
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error", spec)
		}
	}
}

func TestClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, ok := ClassByName(c.String())
		if !ok || got != c {
			t.Fatalf("ClassByName(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ClassByName("nope"); ok {
		t.Fatal("ClassByName accepted an unknown name")
	}
}

func TestNilAndEmptyPlansYieldNilInjector(t *testing.T) {
	if in := New(nil, 7); in != nil {
		t.Fatal("New(nil) != nil")
	}
	if in := New(&Plan{}, 7); in != nil {
		t.Fatal("New(empty plan) != nil")
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if in.Fire(DMACorrupt) {
		t.Fatal("nil injector fired")
	}
	if ops, hits := in.Counts(AllocFail); ops != 0 || hits != 0 {
		t.Fatal("nil injector counted")
	}
	buf := []byte{1, 2, 3}
	if in.InjectDeviceWrite(1, 0x1000, buf) {
		t.Fatal("nil injector dropped a write")
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatal("nil injector corrupted a write")
	}
	if stall, spurious := in.InjectTranslate(1, 0x1000, true); stall != 0 || spurious {
		t.Fatal("nil injector stalled/faulted a translation")
	}
	if in.InjectRXRefillDrop(1, 0) {
		t.Fatal("nil injector dropped a refill")
	}
	if in.InjectAllocFailure() {
		t.Fatal("nil injector failed an alloc")
	}
	in.Collect(nil) // must not panic, must not call the (nil) emit
}

func TestFireStreamDeterministic(t *testing.T) {
	p := plan(Rule{Class: DMACorrupt, Rate: 0.3}, Rule{Class: AllocFail, Rate: 0.1})
	a := New(p, 42)
	b := New(p, 42)
	for i := 0; i < 500; i++ {
		if a.Fire(DMACorrupt) != b.Fire(DMACorrupt) {
			t.Fatalf("DMACorrupt decision %d diverged between equal injectors", i)
		}
		if a.Fire(AllocFail) != b.Fire(AllocFail) {
			t.Fatalf("AllocFail decision %d diverged between equal injectors", i)
		}
	}
	aops, ahits := a.Counts(DMACorrupt)
	bops, bhits := b.Counts(DMACorrupt)
	if aops != bops || ahits != bhits {
		t.Fatalf("counts diverged: (%d,%d) vs (%d,%d)", aops, ahits, bops, bhits)
	}
	if ahits == 0 || ahits == aops {
		t.Fatalf("rate 0.3 over %d ops hit %d times — stream looks degenerate", aops, ahits)
	}
}

func TestScopeAndSaltChangeRateDecisions(t *testing.T) {
	p := plan(Rule{Class: DMACorrupt, Rate: 0.5})
	salted := &Plan{Seed: p.Seed, Salt: 1, Rules: p.Rules}
	base := New(p, 42)
	otherScope := New(p, 43)
	otherSalt := New(salted, 42)
	diffScope, diffSalt := 0, 0
	for i := 0; i < 200; i++ {
		d := base.Fire(DMACorrupt)
		if d != otherScope.Fire(DMACorrupt) {
			diffScope++
		}
		if d != otherSalt.Fire(DMACorrupt) {
			diffSalt++
		}
	}
	if diffScope == 0 {
		t.Fatal("scope change did not perturb the decision stream")
	}
	if diffSalt == 0 {
		t.Fatal("salt change did not perturb the decision stream")
	}
}

func TestPointsFireAtExactOrdinalsRegardlessOfSalt(t *testing.T) {
	for _, salt := range []int64{0, 1, 99} {
		p := &Plan{Seed: 7, Salt: salt, Rules: []Rule{{Class: AllocFail, Points: []uint64{1, 5}}}}
		in := New(p, 1234)
		for i := uint64(1); i <= 10; i++ {
			want := i == 1 || i == 5
			if got := in.Fire(AllocFail); got != want {
				t.Fatalf("salt %d: opportunity %d fired=%v, want %v", salt, i, got, want)
			}
		}
	}
}

func TestRateOneAlwaysFiresRateZeroPointsOnly(t *testing.T) {
	in := New(plan(Rule{Class: DMADrop, Rate: 1}), 0)
	for i := 0; i < 50; i++ {
		if !in.Fire(DMADrop) {
			t.Fatalf("rate 1.0 missed at opportunity %d", i+1)
		}
	}
	// A class with no rule never fires but still counts opportunities.
	if in.Fire(RingDrop) {
		t.Fatal("ruleless class fired")
	}
	if ops, hits := in.Counts(RingDrop); ops != 1 || hits != 0 {
		t.Fatalf("ruleless class counts = (%d,%d), want (1,0)", ops, hits)
	}
}

func TestInjectDeviceWriteCorruptsExactlyOneByte(t *testing.T) {
	in := New(plan(Rule{Class: DMACorrupt, Rate: 1}), 9)
	ref := make([]byte, 64)
	buf := make([]byte, 64)
	if in.InjectDeviceWrite(1, 0x2000, buf) {
		t.Fatal("corrupt-only plan dropped the write")
	}
	diff := 0
	for i := range buf {
		if buf[i] != ref[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes, want exactly 1", diff)
	}
	// And deterministically: a fresh equal injector corrupts the same byte.
	buf2 := make([]byte, 64)
	New(plan(Rule{Class: DMACorrupt, Rate: 1}), 9).InjectDeviceWrite(1, 0x2000, buf2)
	for i := range buf {
		if buf[i] != buf2[i] {
			t.Fatalf("corruption not deterministic at byte %d", i)
		}
	}
}

func TestInjectTranslateStallAndFault(t *testing.T) {
	in := New(plan(Rule{Class: IOMMUStall, Rate: 1}, Rule{Class: IOMMUFault, Rate: 1}), 3)
	stall, spurious := in.InjectTranslate(1, 0x3000, false)
	if stall != TranslateStallNanos || !spurious {
		t.Fatalf("InjectTranslate = (%v, %v), want (%v, true)", stall, spurious, TranslateStallNanos)
	}
}

func TestCollectEmitsEveryClassAndMatchesCounts(t *testing.T) {
	in := New(plan(Rule{Class: AllocFail, Rate: 1}), 5)
	in.Fire(AllocFail)
	in.Fire(DMACorrupt)
	ops := map[string]float64{}
	hits := map[string]float64{}
	in.Collect(func(name string, s metrics.Sample) {
		switch name {
		case "faultinject_opportunities_total":
			ops[s.Labels[0].Value] = s.Value
		case "faultinject_injected_total":
			hits[s.Labels[0].Value] = s.Value
		default:
			t.Fatalf("unexpected family %q", name)
		}
	})
	if len(ops) != int(numClasses) || len(hits) != int(numClasses) {
		t.Fatalf("emitted %d/%d classes, want %d (zeros included)", len(ops), len(hits), numClasses)
	}
	if ops["alloc-fail"] != 1 || hits["alloc-fail"] != 1 {
		t.Fatalf("alloc-fail = (%v,%v), want (1,1)", ops["alloc-fail"], hits["alloc-fail"])
	}
	if ops["dma-corrupt"] != 1 {
		t.Fatalf("dma-corrupt ops = %v, want 1", ops["dma-corrupt"])
	}
	if ops["ring-drop"] != 0 || hits["ring-drop"] != 0 {
		t.Fatal("untouched class should emit zeros")
	}
	// Gathering through a registry must satisfy the Source contract.
	reg := metrics.NewRegistry()
	reg.MustRegister(in)
	if _, err := reg.Gather(); err != nil {
		t.Fatalf("Gather: %v", err)
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []*Plan{
		{Rules: []Rule{{Class: numClasses, Rate: 0.5}}},
		{Rules: []Rule{{Class: DMACorrupt, Rate: 1.5}}},
		{Rules: []Rule{{Class: DMACorrupt}}},
		{Rules: []Rule{{Class: DMACorrupt, Points: []uint64{0}}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: expected validation error", i)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}
