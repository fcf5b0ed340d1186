package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"iommu_maps_total": true,
		"a":                true,
		"a9_b":             true,
		"":                 false,
		"9a":               false,
		"Foo":              false,
		"foo-bar":          false,
		"foo.bar":          false,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestDescValidate(t *testing.T) {
	ok := Desc{Name: "x_total", Kind: KindCounter}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Desc{
		{Name: "Bad", Kind: KindCounter},
		{Name: "h", Kind: KindHistogram},                           // no buckets
		{Name: "h", Kind: KindHistogram, Buckets: []float64{2, 1}}, // not ascending
		{Name: "c", Kind: KindCounter, Buckets: []float64{1}},      // buckets on counter
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("Desc %+v validated, want error", d)
		}
	}
}

// fixedSource emits a static set of samples for registry tests.
type fixedSource struct {
	descs   []Desc
	samples map[string][]Sample
}

func (f fixedSource) Describe() []Desc { return f.descs }
func (f fixedSource) Collect(emit func(string, Sample)) {
	for name, ss := range f.samples {
		for _, s := range ss {
			emit(name, s)
		}
	}
}

func TestRegistryRejectsDuplicatesAndUnknownSamples(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("dup_total", "")
	if err := r.Register(c); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(NewCounter("dup_total", "again")); err == nil {
		t.Error("duplicate family registered, want error")
	}
	if err := r.Register(fixedSource{descs: []Desc{{Name: "BAD", Kind: KindGauge}}}); err == nil {
		t.Error("invalid name registered, want error")
	}
	r.MustRegister(fixedSource{
		descs:   []Desc{{Name: "ok_total", Kind: KindCounter}},
		samples: map[string][]Sample{"rogue_total": {{Value: 1}}},
	})
	if _, err := r.Gather(); err == nil {
		t.Error("undescribed sample gathered, want error")
	}
}

func TestGatherCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(fixedSource{
		descs: []Desc{
			{Name: "zz_total", Kind: KindCounter},
			{Name: "aa_total", Kind: KindCounter},
			{Name: "empty_total", Kind: KindCounter},
		},
		samples: map[string][]Sample{
			"zz_total": {{Value: 1}},
			"aa_total": {
				{Labels: L("dev", "2"), Value: 2},
				{Labels: L("dev", "1"), Value: 1},
			},
		},
	})
	snap, err := r.Gather()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Families) != 2 {
		t.Fatalf("got %d families (empty family must be omitted): %+v", len(snap.Families), snap.Families)
	}
	if snap.Families[0].Name != "aa_total" || snap.Families[1].Name != "zz_total" {
		t.Errorf("families not sorted: %s, %s", snap.Families[0].Name, snap.Families[1].Name)
	}
	aa := snap.Families[0]
	if aa.Samples[0].Labels[0].Value != "1" || aa.Samples[1].Labels[0].Value != "2" {
		t.Errorf("samples not sorted by label signature: %+v", aa.Samples)
	}
}

func TestTextExposition(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("req_total", "Total requests.")
	c.Add(3)
	g := NewGauge("queue_depth", "Current depth.")
	g.Set(2.5)
	h := NewHistogram("latency_ms", "Latency.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	r.MustRegister(c, g, h)
	snap, err := r.Gather()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := snap.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP req_total Total requests.",
		"# TYPE req_total counter",
		"req_total 3",
		"# TYPE queue_depth gauge",
		"queue_depth 2.5",
		"# TYPE latency_ms histogram",
		`latency_ms_bucket{le="1"} 1`,
		`latency_ms_bucket{le="10"} 2`,
		`latency_ms_bucket{le="+Inf"} 3`,
		"latency_ms_sum 105.5",
		"latency_ms_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("h_nanos", "", []float64{10})
	h.Observe(4)
	h.Observe(40)
	r.MustRegister(h, NewCounter("c_total", "help"))
	snap, err := r.Gather()
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"bucket_counts"`)) || !bytes.Contains(data, []byte(`"kind": "histogram"`)) {
		t.Errorf("JSON not snake_case/typed:\n%s", data)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Errorf("JSON round trip changed bytes:\n%s\n---\n%s", data, data2)
	}
}

func TestMergeIsOrderStableAndSums(t *testing.T) {
	mk := func(v float64, dev string) *Snapshot {
		return &Snapshot{Families: []Family{{
			Name: "x_total", Kind: KindCounter,
			Samples: []Sample{{Labels: L("dev", dev), Value: v}},
		}}}
	}
	agg := &Snapshot{}
	for _, s := range []*Snapshot{mk(1, "a"), mk(2, "b"), mk(3, "a"), nil} {
		if err := agg.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := agg.Total("x_total"); got != 6 {
		t.Errorf("Total = %v, want 6", got)
	}
	f := agg.Families[0]
	if len(f.Samples) != 2 || f.Samples[0].Value != 4 || f.Samples[1].Value != 2 {
		t.Errorf("merged samples wrong: %+v", f.Samples)
	}
	// Kind conflicts are refused.
	bad := &Snapshot{Families: []Family{{Name: "x_total", Kind: KindGauge,
		Samples: []Sample{{Value: 1}}}}}
	if err := agg.Merge(bad); err == nil {
		t.Error("kind-conflicting merge accepted, want error")
	}
}

// TestMergeRefusesOverflow: a family whose merged value would overflow to
// +Inf keeps its value before the merge, the other families still merge,
// and the result still encodes as JSON.
func TestMergeRefusesOverflow(t *testing.T) {
	worker := func(g float64) *Snapshot {
		return &Snapshot{Families: []Family{
			{Name: "big_total", Kind: KindCounter, Samples: []Sample{
				{Labels: L("dev", "a"), Value: 1}, {Labels: L("dev", "b"), Value: 1e308}}},
			{Name: "g", Kind: KindGauge, Samples: []Sample{{Value: g}}},
		}}
	}
	agg := &Snapshot{}
	if err := agg.Merge(worker(1)); err != nil {
		t.Fatal(err)
	}
	if err := agg.Merge(worker(2)); err == nil {
		t.Error("overflowing merge accepted, want error")
	}
	if got := agg.Total("big_total"); got != 1+1e308 {
		t.Errorf("refused family changed: total %v, want %v", got, 1+1e308)
	}
	if got := agg.Total("g"); got != 3 {
		t.Errorf("other family: total %v, want 3", got)
	}
	if _, err := agg.JSON(); err != nil {
		t.Errorf("merged snapshot does not encode: %v", err)
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	c := NewCounter("c_total", "")
	g := NewGauge("g", "")
	h := NewHistogram("h", "", []float64{8, 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 8000 || h.Count() != 8000 {
		t.Errorf("counts wrong: c=%d g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
}
