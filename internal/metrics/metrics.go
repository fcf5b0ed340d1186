// Package metrics is the repo's unified observability layer: a
// dependency-free registry of counters, gauges, and fixed-bucket histograms
// with one uniform collection API that every subsystem implements. It
// replaces the N incompatible per-package Stats structs with:
//
//   - Desc/Sample: a named, typed metric family and its label-addressed
//     samples;
//   - Source: the Describe/Collect pair a subsystem implements to expose its
//     counters (iommu, mem, netstack, dkasan, trace, campaign);
//   - Registry: registration plus Gather into a Snapshot;
//   - Snapshot: a canonically ordered, mergeable dump with deterministic
//     encodings — Prometheus text exposition and snake_case JSON.
//
// Determinism is the design center: families are sorted by name, samples by
// label signature, all values derive from integer counts or the virtual
// clock, and merges are order-stable — so for a fixed seed the full metric
// dump of a campaign run is byte-identical at any worker count.
//
// Concurrency contract: the atomic instruments (Counter, Gauge, Histogram)
// are safe for concurrent use and back process-level metrics in services
// like dmafaultd. Subsystem Sources that read plain stats structs must only
// be collected while their system is quiescent — which is exactly when the
// campaign runner collects them (after a scenario completes, from the one
// goroutine that owns the booted system).
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Kind classifies a metric family.
type Kind uint8

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value (queue depth, free pages).
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind as the Prometheus TYPE line does.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// MarshalText encodes the kind by name (snake_case JSON wire format).
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("metrics: unknown kind %q", b)
	}
	return nil
}

// Desc describes one metric family.
type Desc struct {
	// Name is the family name: snake_case, [a-z0-9_:], starting with a
	// letter (Prometheus-compatible).
	Name string
	// Help is the one-line description emitted as # HELP.
	Help string
	// Kind selects counter/gauge/histogram.
	Kind Kind
	// Buckets are the histogram upper bounds, ascending; the +Inf overflow
	// bucket is implicit. Nil for counters and gauges.
	Buckets []float64
}

// Validate checks the name and bucket ordering.
func (d *Desc) Validate() error {
	if !ValidName(d.Name) {
		return fmt.Errorf("metrics: invalid metric name %q", d.Name)
	}
	if d.Kind == KindHistogram {
		if len(d.Buckets) == 0 {
			return fmt.Errorf("metrics: histogram %q has no buckets", d.Name)
		}
		for i := 1; i < len(d.Buckets); i++ {
			if d.Buckets[i] <= d.Buckets[i-1] {
				return fmt.Errorf("metrics: histogram %q buckets not ascending", d.Name)
			}
		}
	} else if len(d.Buckets) != 0 {
		return fmt.Errorf("metrics: %s %q must not declare buckets", d.Kind, d.Name)
	}
	return nil
}

// ValidName reports whether s is a legal snake_case metric or label name.
func ValidName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Label is one key=value dimension of a sample.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Sample is one observation of a family at a label combination. For
// counters and gauges only Value is set; for histograms BucketCounts (one
// per Desc bucket plus a final overflow bucket), Sum, and Count are set.
type Sample struct {
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
	// BucketCounts holds non-cumulative per-bucket counts, len(Buckets)+1
	// entries (the last is the +Inf overflow bucket).
	BucketCounts []uint64 `json:"bucket_counts,omitempty"`
	Sum          float64  `json:"sum,omitempty"`
	Count        uint64   `json:"count,omitempty"`
}

// labelKey is the canonical sort/merge signature of a label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// compareLabels orders two label sets as labelKey's strings compare,
// byte by byte, without building either string.
func compareLabels(a, b []Label) int {
	ca, cb := labelCursor{labels: a}, labelCursor{labels: b}
	for {
		moreA, moreB := ca.next(), cb.next()
		switch {
		case !moreA && !moreB:
			return 0
		case !moreA:
			return -1
		case !moreB:
			return 1
		}
		n := min(len(ca.rest), len(cb.rest))
		if c := strings.Compare(ca.rest[:n], cb.rest[:n]); c != 0 {
			return c
		}
		ca.rest, cb.rest = ca.rest[n:], cb.rest[n:]
	}
}

// labelCursor walks labelKey(labels) part by part: each label's key, "=",
// value and ",".
type labelCursor struct {
	labels []Label
	part   int    // next part to load, four per label
	rest   string // unread bytes of the current part
}

// next loads the next non-empty part into rest unless rest still holds
// bytes, and reports whether any byte is left.
func (c *labelCursor) next() bool {
	for c.rest == "" {
		if c.part == 4*len(c.labels) {
			return false
		}
		l := &c.labels[c.part/4]
		switch c.part % 4 {
		case 0:
			c.rest = l.Key
		case 1:
			c.rest = "="
		case 2:
			c.rest = l.Value
		default:
			c.rest = ","
		}
		c.part++
	}
	return true
}

// sortLabels orders a label set by key (canonical form). Duplicate keys are
// the caller's bug; they sort stably by value.
func sortLabels(labels []Label) {
	sort.Slice(labels, func(i, j int) bool {
		if labels[i].Key != labels[j].Key {
			return labels[i].Key < labels[j].Key
		}
		return labels[i].Value < labels[j].Value
	})
}

// L is a convenience constructor for a one-label set.
func L(key, value string) []Label { return []Label{{Key: key, Value: value}} }

// Source is the uniform collection interface a subsystem implements.
//
// Describe returns the fixed family descriptors; it must be pure. Collect
// emits the current samples by family name (every name must have been
// described). A Source may emit zero samples for a family (e.g. tracing not
// enabled); families with no samples are omitted from the gathered snapshot.
type Source interface {
	Describe() []Desc
	Collect(emit func(name string, s Sample))
}

// SourceFunc adapts a pair of closures to Source.
type SourceFunc struct {
	DescribeFunc func() []Desc
	CollectFunc  func(emit func(name string, s Sample))
}

// Describe implements Source.
func (s SourceFunc) Describe() []Desc { return s.DescribeFunc() }

// Collect implements Source.
func (s SourceFunc) Collect(emit func(name string, s Sample)) { s.CollectFunc(emit) }
