// Package obs is the runtime observability layer: structured logging on
// log/slog, wall-clock span tracing, a bounded flight recorder of recent
// spans and log records, and a subscriber hub for live event streaming. It
// is stdlib-only (plus internal/metrics for exporting its own counters) and
// threads through the campaign engine and the dmafaultd service.
//
// The one hard rule, inherited from the determinism contract of
// internal/campaign and internal/metrics: everything in this package is
// wall-clock, operator-facing data, and none of it may leak into the
// deterministic artifacts — campaign Summaries, resume journals, and golden
// metric expositions are byte-identical whether observability is on or off
// (internal/campaign's obs tests enforce this). Spans and flight-recorder
// dumps live beside the artifacts, never inside them.
//
// The pieces:
//
//   - NewLogger / ParseLevel / ParseFormat: one spelling of the -log-level
//     and -log-format knobs for every cmd (via internal/cliutil).
//   - Tracer / Span: wall-clock span tracing with parent IDs, string attrs,
//     and monotonic durations, fanned out to any number of sinks. Spans
//     export as JSONL (WriteSpansJSONL) and summarize into the
//     obs_span_duration_seconds histogram family (SpanMetrics).
//   - Recorder: the always-on bounded ring of recent spans and log records;
//     RingHandler tees slog records into it; Dump writes the retained
//     window as JSONL — the forensic context the dmafaultd supervisor
//     ships with every stall, panic, quarantine trip, and SIGTERM.
//   - Hub: a fan-out of live events backing GET /v1/campaigns/{id}/events.
//
// Every method on Tracer, Span, Recorder, and Hub is nil-receiver safe, so
// call sites sprinkle spans without guarding "is observability on".
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Log formats accepted by ParseFormat / the -log-format flag.
const (
	FormatText = "text"
	FormatJSON = "json"
)

// ParseLevel maps the -log-level spelling to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", s)
	}
}

// ParseFormat validates the -log-format spelling.
func ParseFormat(s string) (string, error) {
	switch strings.ToLower(s) {
	case "", FormatText:
		return FormatText, nil
	case FormatJSON:
		return FormatJSON, nil
	default:
		return "", fmt.Errorf("obs: unknown log format %q (text|json)", s)
	}
}

// NewLogger builds the canonical structured logger: text or JSON records on
// w at the given level. A nil Recorder is allowed; a non-nil one receives a
// copy of every record regardless of level (the flight recorder keeps debug
// context even when the console is quiet).
func NewLogger(w io.Writer, format string, level slog.Level, rec *Recorder) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == FormatJSON {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	if rec != nil {
		h = NewRingHandler(h, rec)
	}
	return slog.New(h)
}

// Nop returns a logger that discards everything — the default when a
// component is handed no logger, so call sites never nil-check.
func Nop() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}
