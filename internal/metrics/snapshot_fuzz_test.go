package metrics

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// oracleMerge is Snapshot.Merge as a map-and-sort: a name map over s, a
// signature map per family, appends, then a stable sort of the whole
// snapshot. It returns a kind or bucket clash before sorting, which left s
// out of canonical order, so callers compare its result after normalize.
// The merge-join must match it on canonically ordered inputs.
func oracleMerge(s, other *Snapshot) error {
	if other == nil {
		return nil
	}
	byName := make(map[string]int, len(s.Families))
	for i := range s.Families {
		byName[s.Families[i].Name] = i
	}
	var refused error
	for _, of := range other.Families {
		fi, ok := byName[of.Name]
		if !ok {
			if !finiteFamily(&of) {
				refused = cmp.Or(refused, fmt.Errorf("metrics: merge of %q: non-finite value", of.Name))
				continue
			}
			byName[of.Name] = len(s.Families)
			s.Families = append(s.Families, cloneFamily(of))
			continue
		}
		f := &s.Families[fi]
		if f.Kind != of.Kind {
			return fmt.Errorf("metrics: merge of %q: kind %s vs %s", of.Name, f.Kind, of.Kind)
		}
		if f.Kind == KindHistogram && !equalBuckets(f.Buckets, of.Buckets) {
			return fmt.Errorf("metrics: merge of %q: bucket layouts differ", of.Name)
		}
		if magnitude(f)+magnitude(&of) < overflowGuard {
			oracleMergeSamples(f, &of)
			continue
		}
		c := cloneFamily(*f)
		oracleMergeSamples(&c, &of)
		if !finiteFamily(&c) {
			refused = cmp.Or(refused, fmt.Errorf("metrics: merge of %q overflows float64", of.Name))
			continue
		}
		*f = c
	}
	s.normalize()
	return refused
}

func oracleMergeSamples(f, of *Family) {
	bySig := make(map[string]int, len(f.Samples))
	for i := range f.Samples {
		bySig[labelKey(f.Samples[i].Labels)] = i
	}
	for _, os := range of.Samples {
		sig := labelKey(os.Labels)
		si, ok := bySig[sig]
		if !ok {
			bySig[sig] = len(f.Samples)
			f.Samples = append(f.Samples, cloneSample(os))
			continue
		}
		sm := &f.Samples[si]
		sm.Value += os.Value
		sm.Sum += os.Sum
		sm.Count += os.Count
		for i := range os.BucketCounts {
			if i < len(sm.BucketCounts) {
				sm.BucketCounts[i] += os.BucketCounts[i]
			}
		}
	}
}

// sortedCopy is a deep copy of s in canonical order (stable, so equal
// names and signatures keep their order).
func sortedCopy(s *Snapshot) *Snapshot {
	c := &Snapshot{Families: make([]Family, len(s.Families))}
	for i, f := range s.Families {
		c.Families[i] = cloneFamily(f)
	}
	c.normalize()
	return c
}

// checkAgainstOracle merges every snapshot of others, in order, into a
// copy of base with Merge and with the oracle (fed canonically ordered
// copies and sorted after each step), and fails unless every step returns
// the same error and both render the same text. It also checks that Merge
// never alters a merged snapshot.
func checkAgainstOracle(t *testing.T, base *Snapshot, others ...*Snapshot) {
	t.Helper()
	join, oracle := sortedCopy(base), sortedCopy(base)
	for k, o := range others {
		before := o.Text()
		canon := sortedCopy(o)
		gotErr, wantErr := join.Merge(o), oracleMerge(oracle, canon)
		oracle.normalize()
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("merge %d: error %v, oracle %v", k, gotErr, wantErr)
		}
		if got, want := join.Text(), oracle.Text(); !bytes.Equal(got, want) {
			t.Fatalf("merge %d: join renders\n%s\noracle renders\n%s", k, got, want)
		}
		if !join.canonical() {
			t.Fatalf("merge %d left the snapshot out of canonical order:\n%s", k, join.Text())
		}
		if after := o.Text(); !bytes.Equal(after, before) {
			t.Fatalf("merge %d altered its source:\n%s\n---\n%s", k, before, after)
		}
	}
}

// FuzzSnapshotMerge: a fabric coordinator decodes each worker's /v1/metrics
// JSON into a Snapshot, merges every retained snapshot into a fresh one and
// renders the result for each /v1/fleet request. Those bytes come from
// another process, so the decode, merge and render must not panic on any
// input, and the fleet view's determinism must hold: two renderings of the
// same retained snapshot — each merged into an empty snapshot, beside a
// second worker reporting the same families — are byte-identical, and
// merging never alters the retained source. The merged snapshot must also
// survive the /v1/fleet encoding: it marshals to JSON, and decoding that
// renders the same text. Merge must also agree with oracleMerge, the
// map-and-sort merge it replaced: the same errors and, once the oracle's
// result is sorted, the same text. The seed is a real dmafaultd snapshot
// taken after a ladder campaign (testdata/worker_snapshot.json).
func FuzzSnapshotMerge(f *testing.F) {
	seed, err := os.ReadFile(filepath.Join("testdata", "worker_snapshot.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"families":[{"name":"h","kind":"histogram","buckets":[1,2],` +
		`"samples":[{"bucket_counts":[1,2,3,4],"sum":1.5,"count":2}]},` +
		`{"name":"h","kind":"counter","samples":[{"value":1}]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"families":[{"name":"c","kind":"counter","samples":[{"value":1e308}]}]}`))
	f.Add([]byte(`{"families":[{"name":"h","kind":"histogram","buckets":[1],` +
		`"samples":[{"bucket_counts":[1,1],"sum":-1.5e308,"count":2}]},` +
		`{"name":"g","kind":"gauge","samples":[{"value":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in Snapshot
		if json.Unmarshal(data, &in) != nil {
			return
		}
		before := in.Text()
		merged := func() *Snapshot {
			// Merge errors (a kind or bucket clash, an overflow) are served
			// as far as the merge got, as Registry.Fleet does.
			var s Snapshot
			_ = s.Merge(&in)
			_ = s.Merge(&in)
			return &s
		}
		if a, b := merged().Text(), merged().Text(); !bytes.Equal(a, b) {
			t.Fatalf("two renderings of one snapshot differ:\n%s\n---\n%s", a, b)
		}
		m := merged()
		data, err := m.JSON()
		if err != nil {
			t.Fatalf("merged snapshot does not encode: %v", err)
		}
		var back Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("merged snapshot's JSON does not decode: %v", err)
		}
		if a, b := m.Text(), back.Text(); !bytes.Equal(a, b) {
			t.Fatalf("JSON round trip changed the merged snapshot:\n%s\n---\n%s", a, b)
		}
		if after := in.Text(); !bytes.Equal(after, before) {
			t.Fatalf("merging altered its source:\n%s\n---\n%s", before, after)
		}
		checkAgainstOracle(t, &Snapshot{}, &in, &in)
		checkAgainstOracle(t, &in, &in)
	})
}

// TestMergeMatchesOracle: the merge-join against the map-and-sort merge it
// replaced, on inputs that exercise its ordering rules.
func TestMergeMatchesOracle(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "worker_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		base string
		in   []string
	}{
		{"worker snapshot twice", `{}`, []string{string(seed), string(seed)}},
		{"into itself", string(seed), []string{string(seed)}},
		{"disjoint families interleave", `{"families":[{"name":"b","kind":"counter","samples":[{"value":1}]},` +
			`{"name":"d","kind":"gauge","samples":[{"value":2}]}]}`,
			[]string{`{"families":[{"name":"a","kind":"counter","samples":[{"value":3}]},` +
				`{"name":"c","kind":"counter","samples":[{"value":4}]},{"name":"e","kind":"gauge","samples":[{"value":5}]}]}`}},
		{"duplicate names in the input", `{"families":[{"name":"a","kind":"counter","samples":[{"value":1}]}]}`,
			[]string{`{"families":[{"name":"b","kind":"counter","samples":[{"value":1}]},` +
				`{"name":"b","kind":"counter","samples":[{"value":2},{"labels":[{"key":"k","value":"v"}],"value":3}]},` +
				`{"name":"a","kind":"counter","samples":[{"value":4}]},{"name":"a","kind":"counter","samples":[{"value":5}]}]}`}},
		{"duplicate names of two kinds", `{}`,
			[]string{`{"families":[{"name":"x","kind":"counter","samples":[{"value":1}]},` +
				`{"name":"x","kind":"gauge","samples":[{"value":2}]},{"name":"y","kind":"gauge","samples":[{"value":2}]}]}`}},
		{"empty label sets and duplicate signatures", `{"families":[{"name":"c","kind":"counter","samples":[` +
			`{"value":1},{"value":2},{"labels":[{"key":"a","value":"1"}],"value":3}]}]}`,
			[]string{`{"families":[{"name":"c","kind":"counter","samples":[{"labels":[{"key":"a","value":"1"}],"value":10},` +
				`{"value":20},{"value":30},{"labels":[{"key":"a","value":"0"}],"value":40},{"labels":[{"key":"a","value":"0"}],"value":50}]}]}`}},
		{"label values holding , and =", `{"families":[{"name":"c","kind":"counter","samples":[` +
			`{"labels":[{"key":"a","value":"b,c=d"}],"value":1},{"labels":[{"key":"a","value":"b"}],"value":2}]}]}`,
			[]string{`{"families":[{"name":"c","kind":"counter","samples":[` +
				`{"labels":[{"key":"a","value":"b"},{"key":"c","value":"d"}],"value":10},` +
				`{"labels":[{"key":"a","value":"b="}],"value":20},{"labels":[{"key":"a=b","value":""}],"value":30},` +
				`{"labels":[{"key":"a","value":""}],"value":40},{"labels":[{"key":"","value":""}],"value":50}]}]}`}},
		{"histograms", `{"families":[{"name":"h","kind":"histogram","buckets":[1,2],"samples":[` +
			`{"labels":[{"key":"w","value":"1"}],"bucket_counts":[1,0,0],"sum":0.5,"count":1}]}]}`,
			[]string{`{"families":[{"name":"h","kind":"histogram","buckets":[1,2],"samples":[` +
				`{"labels":[{"key":"w","value":"0"}],"bucket_counts":[0,1,0],"sum":1.5,"count":1},` +
				`{"labels":[{"key":"w","value":"1"}],"bucket_counts":[0,0,2,9],"sum":7,"count":2}]}]}`,
				`{"families":[{"name":"h","kind":"histogram","buckets":[1,3],"samples":[{"bucket_counts":[1,1,1],"count":3}]}]}`}},
		{"kind clash stops the merge", `{"families":[{"name":"b","kind":"counter","samples":[{"value":1}]}]}`,
			[]string{`{"families":[{"name":"a","kind":"counter","samples":[{"value":1}]},` +
				`{"name":"b","kind":"gauge","samples":[{"value":1}]},{"name":"c","kind":"gauge","samples":[{"value":1}]}]}`}},
		{"overflow refusals", `{"families":[{"name":"a","kind":"counter","samples":[{"value":1e308}]},` +
			`{"name":"b","kind":"counter","samples":[{"value":1}]}]}`,
			[]string{`{"families":[{"name":"a","kind":"counter","samples":[{"value":1e308}]},` +
				`{"name":"b","kind":"counter","samples":[{"value":2}]},` +
				`{"name":"h","kind":"histogram","buckets":[1],"samples":[{"bucket_counts":[1,1],"sum":1.5e308,"count":2}]}]}`,
				`{"families":[{"name":"h","kind":"histogram","buckets":[1],"samples":[{"bucket_counts":[1,1],"sum":1.5e308,"count":2}]},` +
					`{"name":"z","kind":"gauge","samples":[{"value":-1.7e308},{"labels":[{"key":"k","value":"v"}],"value":1}]}]}`}},
		{"an unsorted input", `{}`,
			[]string{`{"families":[{"name":"z","kind":"counter","samples":[{"labels":[{"key":"k","value":"2"}],"value":1},` +
				`{"labels":[{"key":"k","value":"1"}],"value":2}]},{"name":"a","kind":"gauge","samples":[{"value":3}]}]}`,
				`{"families":[{"name":"m","kind":"counter","samples":[{"value":1}]},{"name":"a","kind":"gauge","samples":[{"value":1}]}]}`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base Snapshot
			if err := json.Unmarshal([]byte(tc.base), &base); err != nil {
				t.Fatal(err)
			}
			others := make([]*Snapshot, len(tc.in))
			for i, in := range tc.in {
				others[i] = &Snapshot{}
				if err := json.Unmarshal([]byte(in), others[i]); err != nil {
					t.Fatal(err)
				}
			}
			checkAgainstOracle(t, &base, others...)
		})
	}
}

// TestMergeClashKeepsCanonicalOrder: a kind clash ends the merge with the
// snapshot still in canonical order. The map-and-sort merge returned the
// clash before sorting, so merging {a counter, b gauge} into {b counter}
// rendered b before a.
func TestMergeClashKeepsCanonicalOrder(t *testing.T) {
	s := &Snapshot{Families: []Family{{Name: "b", Kind: KindCounter, Samples: []Sample{{Value: 1}}}}}
	other := &Snapshot{Families: []Family{
		{Name: "a", Kind: KindCounter, Samples: []Sample{{Value: 2}}},
		{Name: "b", Kind: KindGauge, Samples: []Sample{{Value: 3}}},
	}}
	err := s.Merge(other)
	if err == nil || !strings.Contains(err.Error(), "kind counter vs gauge") {
		t.Fatalf("Merge = %v, want a kind clash", err)
	}
	names := make([]string, len(s.Families))
	for i, f := range s.Families {
		names[i] = f.Name
	}
	if !slices.Equal(names, []string{"a", "b"}) {
		t.Fatalf("families after the clash are %v, want [a b]", names)
	}
	if text := string(s.Text()); strings.Index(text, "b 1") < strings.Index(text, "a 2") {
		t.Fatalf("Text renders b before a:\n%s", text)
	}
}

// TestMergeSteadyStateAllocatesNothing: once the accumulator holds every
// family and sample, merging another snapshot of the same shape allocates
// nothing.
func TestMergeSteadyStateAllocatesNothing(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "worker_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var in Snapshot
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	var acc Snapshot
	if err := acc.Merge(&in); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := acc.Merge(&in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state Merge allocates %.0f times", n)
	}
}
