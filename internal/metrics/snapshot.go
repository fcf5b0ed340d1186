package metrics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Family is one metric family of a Snapshot: its descriptor plus the
// collected samples, in canonical (label-signature) order.
type Family struct {
	Name    string    `json:"name"`
	Help    string    `json:"help,omitempty"`
	Kind    Kind      `json:"kind"`
	Buckets []float64 `json:"buckets,omitempty"`
	Samples []Sample  `json:"samples"`
}

// Snapshot is a gathered, canonically ordered metric dump. Equal simulated
// states produce byte-identical encodings (families sorted by name, samples
// by label signature, values derived from integer counts).
type Snapshot struct {
	Families []Family `json:"families"`
}

// normalize sorts families by name and samples by label signature, both
// stably, so equal names and signatures keep their order.
func (s *Snapshot) normalize() {
	for i := range s.Families {
		slices.SortStableFunc(s.Families[i].Samples, compareSamples)
	}
	slices.SortStableFunc(s.Families, compareFamilies)
}

func compareFamilies(a, b Family) int { return strings.Compare(a.Name, b.Name) }

func compareSamples(a, b Sample) int { return compareLabels(a.Labels, b.Labels) }

// canonical reports whether families are sorted by name and every family's
// samples by label signature (equal neighbours allowed).
func (s *Snapshot) canonical() bool {
	for i := range s.Families {
		if i > 0 && s.Families[i-1].Name > s.Families[i].Name {
			return false
		}
		sm := s.Families[i].Samples
		for j := 1; j < len(sm); j++ {
			if compareLabels(sm[j-1].Labels, sm[j].Labels) > 0 {
				return false
			}
		}
	}
	return true
}

// sortedFamilies returns s's families in canonical order: s's own slice
// when it is canonical, else a sorted copy that leaves s as it was.
func (s *Snapshot) sortedFamilies() []Family {
	if s.canonical() {
		return s.Families
	}
	fams := slices.Clone(s.Families)
	for i := range fams {
		fams[i].Samples = slices.Clone(fams[i].Samples)
	}
	(&Snapshot{Families: fams}).normalize()
	return fams
}

// Merge folds other into s, summing samples that share a family and label
// signature and adopting families/samples s has not seen. Counters and
// histograms accumulate; gauges sum too (a campaign-level gauge reads as
// "total across scenarios"). Merging is associative over float64 addition
// in a fixed order, so merging per-scenario snapshots in input order yields
// byte-identical aggregates at any worker count.
//
// Both snapshots are walked once, in canonical order: families by name,
// samples by label signature. A family or sample s has not seen is
// inserted in place, so s stays canonical, even when Merge returns an
// error; once s holds every family and sample of other, a merge allocates
// nothing. A non-canonical s (built by hand) is sorted first; a
// non-canonical other (a foreign scrape) is merged from a sorted copy and
// never altered. A family or sample of other merges into the last one of s
// with its name or signature; duplicates already in s stay apart.
//
// A family whose merge would hold a non-finite value (two worker counters
// near the float64 limit overflow to +Inf, which JSON cannot encode) is
// refused: s keeps that family as it was, the other families still merge,
// and the first such refusal is returned. A kind or bucket-layout clash
// stops the merge there and is returned; the families before it stay
// merged.
func (s *Snapshot) Merge(other *Snapshot) error {
	if other == nil {
		return nil
	}
	if !s.canonical() {
		s.normalize()
	}
	var refused error
	fams, i := other.sortedFamilies(), 0
	for j := range fams {
		of := &fams[j]
		for i < len(s.Families) && s.Families[i].Name < of.Name {
			i++
		}
		for i+1 < len(s.Families) && s.Families[i+1].Name == of.Name {
			i++
		}
		if i == len(s.Families) || s.Families[i].Name != of.Name {
			if !finiteFamily(of) {
				refused = cmp.Or(refused, fmt.Errorf("metrics: merge of %q: non-finite value", of.Name))
				continue
			}
			s.Families = slices.Insert(s.Families, i, cloneFamily(*of))
			continue
		}
		f := &s.Families[i]
		if f.Kind != of.Kind {
			return fmt.Errorf("metrics: merge of %q: kind %s vs %s", of.Name, f.Kind, of.Kind)
		}
		if f.Kind == KindHistogram && !equalBuckets(f.Buckets, of.Buckets) {
			return fmt.Errorf("metrics: merge of %q: bucket layouts differ", of.Name)
		}
		if magnitude(f)+magnitude(of) < overflowGuard {
			mergeSamples(f, of)
			continue
		}
		// Values this large may overflow: merge into a copy and keep it only
		// if every value stayed finite.
		c := cloneFamily(*f)
		mergeSamples(&c, of)
		if !finiteFamily(&c) {
			refused = cmp.Or(refused, fmt.Errorf("metrics: merge of %q overflows float64", of.Name))
			continue
		}
		*f = c
	}
	return refused
}

// overflowGuard bounds the summed magnitudes of two families below which
// merging them cannot overflow: half of math.MaxFloat64 leaves room for the
// rounding of every partial sum.
const overflowGuard = math.MaxFloat64 / 2

// magnitude adds up the magnitudes of every Value and Sum of f, a bound on
// any value merging f can contribute. It is NaN if any value is, and NaN
// fails the guard's comparison.
func magnitude(f *Family) float64 {
	var total float64
	for _, sm := range f.Samples {
		total += math.Abs(sm.Value) + math.Abs(sm.Sum)
	}
	return total
}

// finiteFamily reports whether every Value and Sum of f is finite.
func finiteFamily(f *Family) bool {
	for _, sm := range f.Samples {
		if math.IsInf(sm.Value, 0) || math.IsNaN(sm.Value) || math.IsInf(sm.Sum, 0) || math.IsNaN(sm.Sum) {
			return false
		}
	}
	return true
}

// mergeSamples folds of's samples into f, which has the same kind and
// buckets; both hold their samples in canonical order, and f keeps it.
func mergeSamples(f, of *Family) {
	i := 0
	for k := range of.Samples {
		os := &of.Samples[k]
		c := 1 // f.Samples[i] against os
		for ; i < len(f.Samples); i++ {
			if c = compareLabels(f.Samples[i].Labels, os.Labels); c >= 0 {
				break
			}
		}
		if c != 0 {
			f.Samples = slices.Insert(f.Samples, i, cloneSample(*os))
			continue
		}
		for i+1 < len(f.Samples) && compareLabels(f.Samples[i+1].Labels, os.Labels) == 0 {
			i++
		}
		sm := &f.Samples[i]
		sm.Value += os.Value
		sm.Sum += os.Sum
		sm.Count += os.Count
		for b := range os.BucketCounts {
			if b < len(sm.BucketCounts) {
				sm.BucketCounts[b] += os.BucketCounts[b]
			}
		}
	}
}

func cloneFamily(f Family) Family {
	out := Family{Name: f.Name, Help: f.Help, Kind: f.Kind,
		Buckets: append([]float64(nil), f.Buckets...)}
	out.Samples = make([]Sample, len(f.Samples))
	for i, sm := range f.Samples {
		out.Samples[i] = cloneSample(sm)
	}
	return out
}

func cloneSample(s Sample) Sample {
	return Sample{
		Labels:       append([]Label(nil), s.Labels...),
		Value:        s.Value,
		BucketCounts: append([]uint64(nil), s.BucketCounts...),
		Sum:          s.Sum,
		Count:        s.Count,
	}
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Total returns the summed Value of a family's samples (0 if absent) — the
// quick way to read one counter out of a snapshot.
func (s *Snapshot) Total(name string) float64 {
	for _, f := range s.Families {
		if f.Name == name {
			var t float64
			for _, sm := range f.Samples {
				t += sm.Value
			}
			return t
		}
	}
	return 0
}

// JSON encodes the snapshot deterministically (indented, snake_case).
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// WriteText writes the snapshot in the Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE lines then samples, histograms expanded
// into cumulative _bucket{le=...}, _sum, and _count series.
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, sm := range f.Samples {
			if err := writeSample(w, &f, sm); err != nil {
				return err
			}
		}
	}
	return nil
}

// Text renders WriteText to a byte slice.
func (s *Snapshot) Text() []byte {
	var b strings.Builder
	_ = s.WriteText(&b)
	return []byte(b.String())
}

func writeSample(w io.Writer, f *Family, sm Sample) error {
	if f.Kind != KindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, formatLabels(sm.Labels, "", ""), formatValue(sm.Value))
		return err
	}
	var cum uint64
	for i, ub := range f.Buckets {
		if i < len(sm.BucketCounts) {
			cum += sm.BucketCounts[i]
		}
		le := formatValue(ub)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, formatLabels(sm.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if n := len(f.Buckets); n < len(sm.BucketCounts) {
		cum += sm.BucketCounts[n]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.Name, formatLabels(sm.Labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.Name, formatLabels(sm.Labels, "", ""), formatValue(sm.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.Name, formatLabels(sm.Labels, "", ""), sm.Count)
	return err
}

// formatLabels renders {k="v",...}, appending an extra label (the histogram
// le) when extraKey is non-empty. Empty label sets render as nothing.
func formatLabels(labels []Label, extraKey, extraValue string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float with the shortest exact representation —
// strconv is deterministic, so equal values always print identically.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes newlines and backslashes per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
