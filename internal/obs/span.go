package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dmafault/internal/metrics"
)

// Span is one completed wall-clock interval: a campaign, a scenario, an
// execution attempt, a retry backoff, an HTTP request, a queue wait. IDs are
// process-local (monotonic per Tracer); Parent links child spans to the span
// they ran under. Durations come from the monotonic clock, StartUnixNanos
// from the wall clock — both are operator data and never enter deterministic
// artifacts.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// StartUnixNanos is the wall-clock start (UnixNano).
	StartUnixNanos int64 `json:"start_unix_nanos"`
	// DurationNanos is the monotonic elapsed time.
	DurationNanos int64 `json:"duration_nanos"`
	// Attrs carry string dimensions (scenario id, kind, outcome, attempt).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Duration returns the monotonic elapsed time as a time.Duration.
func (s Span) Duration() time.Duration { return time.Duration(s.DurationNanos) }

// Outcome returns the span's "outcome" attr, defaulting to "ok" — the label
// SpanMetrics buckets by.
func (s Span) Outcome() string {
	if o := s.Attrs["outcome"]; o != "" {
		return o
	}
	return "ok"
}

// Attr is one string dimension of a span.
type Attr struct{ Key, Value string }

// A builds an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Af builds an Attr with a formatted value.
func Af(key, format string, args ...any) Attr {
	return Attr{Key: key, Value: fmt.Sprintf(format, args...)}
}

// Tracer mints spans and fans completed ones out to its sinks (a flight
// recorder, a metrics summarizer, a live-event hub, a JSONL collector — any
// func(Span)). All methods are safe on a nil *Tracer, which simply records
// nothing, so "tracing off" is the zero value everywhere.
type Tracer struct {
	nextID atomic.Uint64
	sinks  []func(Span) // fixed at NewTracer
}

// NewTracer builds a tracer fanning out to the given sinks.
func NewTracer(sinks ...func(Span)) *Tracer {
	return &Tracer{sinks: sinks}
}

// Start opens a root span. End completes and emits it.
func (t *Tracer) Start(name string, attrs ...Attr) *ActiveSpan {
	return t.start(name, 0, attrs)
}

func (t *Tracer) start(name string, parent uint64, attrs []Attr) *ActiveSpan {
	if t == nil {
		return nil
	}
	sp := &ActiveSpan{
		tracer:  t,
		started: time.Now(),
		span: Span{
			ID:     t.nextID.Add(1),
			Parent: parent,
			Name:   name,
		},
	}
	sp.span.StartUnixNanos = sp.started.UnixNano()
	sp.setAttrs(attrs)
	return sp
}

func (t *Tracer) emit(s Span) {
	for _, sink := range t.sinks {
		sink(s)
	}
}

// ActiveSpan is an in-flight span. It is owned by one goroutine (the one
// doing the timed work); End emits the completed Span to the tracer's sinks.
type ActiveSpan struct {
	tracer  *Tracer
	started time.Time
	mu      sync.Mutex
	span    Span
	ended   bool
}

// Child opens a span parented under this one.
func (a *ActiveSpan) Child(name string, attrs ...Attr) *ActiveSpan {
	if a == nil {
		return nil
	}
	return a.tracer.start(name, a.span.ID, attrs)
}

// SetAttr adds or overwrites one attr.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.span.Attrs == nil {
		a.span.Attrs = map[string]string{}
	}
	a.span.Attrs[key] = value
}

func (a *ActiveSpan) setAttrs(attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, len(attrs))
	}
	for _, at := range attrs {
		a.span.Attrs[at.Key] = at.Value
	}
}

// ID returns the span's ID (0 for a nil span).
func (a *ActiveSpan) ID() uint64 {
	if a == nil {
		return 0
	}
	return a.span.ID
}

// End completes the span with the given final attrs and emits it to the
// tracer's sinks. Calling End twice emits once.
func (a *ActiveSpan) End(attrs ...Attr) {
	if a == nil {
		return
	}
	a.setAttrs(attrs)
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	a.span.DurationNanos = int64(time.Since(a.started))
	s := a.span
	if len(s.Attrs) > 0 {
		// Copy so post-End mutation of the map cannot race the sinks.
		attrs := make(map[string]string, len(s.Attrs))
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		s.Attrs = attrs
	}
	a.mu.Unlock()
	a.tracer.emit(s)
}

// WriteSpansJSONL encodes spans one JSON object per line (snake_case, the
// repo's wire convention).
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: encode span: %w", err)
		}
	}
	return bw.Flush()
}

// ReadSpansJSONL decodes a span stream written by WriteSpansJSONL.
func ReadSpansJSONL(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	var out []Span
	for {
		var s Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: decode span %d: %w", len(out), err)
		}
		out = append(out, s)
	}
}

// Collector is a thread-safe span sink that retains everything — the JSONL
// export buffer behind `campaign -spans`.
type Collector struct {
	mu    sync.Mutex
	spans []Span
}

// Sink returns the collector's func(Span).
func (c *Collector) Sink() func(Span) {
	return func(s Span) {
		c.mu.Lock()
		c.spans = append(c.spans, s)
		c.mu.Unlock()
	}
}

// Spans returns the collected spans in emission order.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// WriteJSONL dumps the collected spans as JSONL.
func (c *Collector) WriteJSONL(w io.Writer) error {
	return WriteSpansJSONL(w, c.Spans())
}

// DefaultSpanBuckets are the obs_span_duration_seconds histogram bounds:
// 1ms..60s, the range campaign scenarios and service requests actually span.
var DefaultSpanBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// SpanMetrics summarizes completed spans into one histogram family,
// obs_span_duration_seconds{span,outcome}: per span name (scenario, attempt,
// queue-wait, retry-backoff, request...) and per outcome (ok, panic,
// timeout, error...). It is a metrics.HistogramVec, so it implements
// metrics.Source and emits no samples until a span completes; dmafaultd
// registers it through metrics.OmitZero. These are wall-clock numbers and
// live only on the service metric plane — never inside campaign summaries.
type SpanMetrics struct{ *metrics.HistogramVec }

// NewSpanMetrics builds an empty summarizer.
func NewSpanMetrics() *SpanMetrics {
	return &SpanMetrics{metrics.NewHistogramVec("obs_span_duration_seconds",
		"Wall-clock span durations by span name and outcome.",
		DefaultSpanBuckets, "span", "outcome")}
}

// Sink returns the summarizer's func(Span).
func (m *SpanMetrics) Sink() func(Span) {
	return func(s Span) { m.Observe(s.Duration().Seconds(), s.Name, s.Outcome()) }
}
