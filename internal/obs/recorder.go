package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"dmafault/internal/metrics"
)

// RecordKind classifies flight-recorder entries.
type RecordKind string

const (
	// RecordLog is a structured log record teed in by RingHandler.
	RecordLog RecordKind = "log"
	// RecordSpan is a completed span (via Recorder.SpanSink).
	RecordSpan RecordKind = "span"
	// RecordEvent is a service event (job submitted, watchdog fired, ...).
	RecordEvent RecordKind = "event"
)

// Record is one flight-recorder entry: a wall-clock stamp, a kind, a short
// name (log level, span name, event type), a message, and string attrs.
type Record struct {
	TUnixNanos int64             `json:"t_unix_nanos"`
	Kind       RecordKind        `json:"kind"`
	Name       string            `json:"name"`
	Msg        string            `json:"msg,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Recorder is the always-on bounded flight recorder: a ring of the most
// recent Records. Old entries fall off; Dropped counts them, and cumulative
// per-kind totals are kept so overflow is never invisible (the ring exports
// both as the trace_recorder_* metric family). All methods are nil-receiver
// safe and safe for concurrent use.
type Recorder struct {
	mu         sync.Mutex
	ring       []Record
	start      int
	count      int
	dropped    uint64
	kindCounts map[RecordKind]uint64
}

// DefaultRecorderCap bounds the ring when NewRecorder is given cap <= 0.
const DefaultRecorderCap = 2048

// NewRecorder builds a ring holding up to cap records.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultRecorderCap
	}
	return &Recorder{ring: make([]Record, cap), kindCounts: map[RecordKind]uint64{}}
}

// Add appends one record, stamping it with the wall clock if unstamped.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	if rec.TUnixNanos == 0 {
		rec.TUnixNanos = time.Now().UnixNano()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kindCounts[rec.Kind]++
	if r.count == len(r.ring) {
		r.ring[r.start] = rec
		r.start = (r.start + 1) % len(r.ring)
		r.dropped++
		return
	}
	r.ring[(r.start+r.count)%len(r.ring)] = rec
	r.count++
}

// SpanSink returns a span sink that records completed spans into the ring.
func (r *Recorder) SpanSink() func(Span) {
	return func(s Span) {
		if r == nil {
			return
		}
		attrs := make(map[string]string, len(s.Attrs)+2)
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		attrs["span_id"] = fmt.Sprintf("%d", s.ID)
		if s.Parent != 0 {
			attrs["parent_id"] = fmt.Sprintf("%d", s.Parent)
		}
		r.Add(Record{
			TUnixNanos: s.StartUnixNanos,
			Kind:       RecordSpan,
			Name:       s.Name,
			Msg:        s.Duration().String(),
			Attrs:      attrs,
		})
	}
}

// Event records a service event with key=value attrs.
func (r *Recorder) Event(name, msg string, attrs ...Attr) {
	if r == nil {
		return
	}
	var m map[string]string
	if len(attrs) > 0 {
		m = make(map[string]string, len(attrs))
		for _, a := range attrs {
			m[a.Key] = a.Value
		}
	}
	r.Add(Record{Kind: RecordEvent, Name: name, Msg: msg, Attrs: m})
}

// Records returns the retained window, oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.ring[(r.start+i)%len(r.ring)]
	}
	return out
}

// Dropped returns how many records fell off the ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Dump writes the retained window as JSONL, oldest first — the forensic
// artifact the supervisor ships on stall, panic, and SIGTERM.
func (r *Recorder) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range r.Records() {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: encode record: %w", err)
		}
	}
	return bw.Flush()
}

// DumpFile writes the retained window to path (0644, truncating).
func (r *Recorder) DumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: dump: %w", err)
	}
	if err := r.Dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRecordsJSONL decodes a dump written by Dump.
func ReadRecordsJSONL(rd io.Reader) ([]Record, error) {
	dec := json.NewDecoder(rd)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: decode record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// The ring exports its own retention as the trace_recorder_* family —
// cumulative per-kind event totals and the drop counter — so ring overflow
// is a scrapeable signal, not a silent loss. Register through
// metrics.OmitZero: an untouched recorder stays out of idle expositions.

// Describe implements metrics.Source.
func (r *Recorder) Describe() []metrics.Desc {
	return []metrics.Desc{
		{Name: "trace_recorder_events_total", Help: "Flight-recorder records appended, by kind.", Kind: metrics.KindCounter},
		{Name: "trace_recorder_dropped_total", Help: "Flight-recorder records shed by ring wraparound.", Kind: metrics.KindCounter},
	}
}

// Collect implements metrics.Source.
func (r *Recorder) Collect(emit func(name string, s metrics.Sample)) {
	r.mu.Lock()
	kinds := make([]string, 0, len(r.kindCounts))
	for k := range r.kindCounts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	counts := make([]uint64, len(kinds))
	for i, k := range kinds {
		counts[i] = r.kindCounts[RecordKind(k)]
	}
	dropped := r.dropped
	r.mu.Unlock()
	for i, k := range kinds {
		emit("trace_recorder_events_total", metrics.Sample{
			Labels: metrics.L("kind", k), Value: float64(counts[i]),
		})
	}
	emit("trace_recorder_dropped_total", metrics.Sample{Value: float64(dropped)})
}
