package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dmafault/internal/metrics"
)

// KindSummary is the per-kind roll-up.
type KindSummary struct {
	Runs        int     `json:"runs"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	Escalations int     `json:"escalations"`
	Errors      int     `json:"errors"`
}

// Summary is the merged outcome of a campaign. Every map is JSON-encoded
// with sorted keys (encoding/json's map behavior) and every float is
// derived from integer counts, so equal campaigns encode byte-identically
// regardless of worker count or scheduling.
type Summary struct {
	Scenarios int `json:"scenarios"`
	Successes int `json:"successes"`
	Errors    int `json:"errors"`
	// Panics counts scenarios the engine isolated after a panic; Timeouts
	// counts per-scenario deadline expiries; Retries totals the extra
	// attempts spent on transient injected faults. All are omitted from the
	// encoding when zero, so clean campaigns encode as before.
	Panics   int `json:"panics,omitempty"`
	Timeouts int `json:"timeouts,omitempty"`
	Retries  int `json:"retries,omitempty"`
	// Escalations is the total privilege escalations across all scenarios.
	Escalations int `json:"escalations"`
	// ByKind breaks the campaign down per scenario kind.
	ByKind map[Kind]*KindSummary `json:"by_kind"`
	// WindowPaths is the Fig. 7 path histogram over every injection the
	// campaign performed (including per-attempt paths inside ring floods).
	WindowPaths map[string]int `json:"window_paths,omitempty"`
	// DKASAN tallies sanitizer reports by class across dkasan scenarios.
	DKASAN map[string]uint64 `json:"dkasan,omitempty"`
	// TraceEvents/TraceDropped aggregate the forensic rings' retention.
	TraceEvents  int    `json:"trace_events"`
	TraceDropped uint64 `json:"trace_dropped"`
	// StepsDropped counts attack-log lines shed by the Result step cap.
	StepsDropped uint64 `json:"steps_dropped"`
	// VirtualNanos totals the virtual time simulated by metric-capturing
	// scenarios.
	VirtualNanos uint64 `json:"virtual_nanos"`
	// Metrics is the campaign-level metric dump: the campaign_* roll-up
	// families plus every per-scenario machine snapshot merged in input
	// order, so it is byte-identical at any worker count.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Results lists every scenario outcome in campaign (input) order.
	Results []*Result `json:"results"`
}

// VirtualNanosBuckets are the campaign_virtual_nanos histogram bounds, in
// virtual nanoseconds (1ms .. 10s of simulated time per scenario).
var VirtualNanosBuckets = []float64{1e6, 1e7, 1e8, 1e9, 1e10}

// dkasanClasses are the metric keys runDKASAN emits, mirrored into the
// summary tally.
var dkasanClasses = []string{"alloc_after_map", "map_after_alloc", "access_after_map", "multiple_map"}

// Aggregate merges per-scenario results, in order, into one summary.
func Aggregate(results []*Result) *Summary {
	s := &Summary{
		Scenarios:   len(results),
		ByKind:      map[Kind]*KindSummary{},
		WindowPaths: map[string]int{},
		DKASAN:      map[string]uint64{},
		Results:     results,
	}
	for _, r := range results {
		if r.rest == nil {
			// Executed with no store or journal to write it to, or built
			// by hand: encoded once, here, for the summary and the digest.
			r.Encode()
		}
		ks := s.ByKind[r.Kind]
		if ks == nil {
			ks = &KindSummary{}
			s.ByKind[r.Kind] = ks
		}
		ks.Runs++
		if r.Err != "" {
			ks.Errors++
			s.Errors++
		}
		switch r.Outcome {
		case OutcomePanic:
			s.Panics++
		case OutcomeTimeout:
			s.Timeouts++
		}
		s.Retries += r.Retries
		if r.Success {
			ks.Successes++
			s.Successes++
		}
		ks.Escalations += r.Escalations
		s.Escalations += r.Escalations
		s.TraceEvents += r.TraceEvents
		s.TraceDropped += r.TraceDropped
		s.StepsDropped += r.StepsDropped
		if r.WindowPath != "" {
			s.WindowPaths[r.WindowPath]++
		}
		for k, v := range r.Metrics {
			// Ring-flood scenarios carry per-attempt path counts as
			// "path[<name>]" metrics; fold them into the histogram.
			if strings.HasPrefix(k, "path[") && strings.HasSuffix(k, "]") {
				var n int
				fmt.Sscanf(v, "%d", &n)
				s.WindowPaths[k[len("path["):len(k)-1]] += n
			}
		}
		if r.Kind == KindDKASAN {
			for _, c := range dkasanClasses {
				var n uint64
				fmt.Sscanf(r.Metrics[c], "%d", &n)
				s.DKASAN[c] += n
			}
		}
	}
	for _, ks := range s.ByKind {
		if ks.Runs > 0 {
			ks.SuccessRate = float64(ks.Successes) / float64(ks.Runs)
		}
	}
	s.buildMetrics(results)
	return s
}

// buildMetrics assembles the campaign-level snapshot: the campaign_* roll-up
// families gathered through a registry, then every scenario's machine
// snapshot merged in input order.
func (s *Summary) buildMetrics(results []*Result) {
	scenarios := metrics.NewCounter("campaign_scenarios_total", "Scenarios executed by the campaign.")
	successes := metrics.NewCounter("campaign_successes_total", "Scenarios meeting their success criterion.")
	errors := metrics.NewCounter("campaign_errors_total", "Scenarios that failed with an execution error.")
	escalations := metrics.NewCounter("campaign_escalations_total", "Privilege escalations across all scenarios.")
	vtime := metrics.NewHistogram("campaign_virtual_nanos",
		"Virtual time simulated per metric-capturing scenario.", VirtualNanosBuckets)
	scenarios.Add(uint64(s.Scenarios))
	successes.Add(uint64(s.Successes))
	errors.Add(uint64(s.Errors))
	escalations.Add(uint64(s.Escalations))
	for _, r := range results {
		if r.Snapshot != nil {
			vtime.Observe(float64(r.VirtualNanos))
		}
		s.VirtualNanos += r.VirtualNanos
	}
	reg := metrics.NewRegistry()
	reg.MustRegister(scenarios, successes, errors, escalations, vtime)
	snap, err := reg.Gather()
	if err != nil {
		// Static instruments cannot violate the Source contract.
		panic("campaign: " + err.Error())
	}
	for _, r := range results {
		if err := snap.Merge(r.Snapshot); err != nil {
			s.Errors++
			r.Err = "metrics merge: " + err.Error()
			r.Encode()
		}
	}
	s.Metrics = snap
}

// MetricsText renders the campaign-level snapshot in the Prometheus text
// exposition format (empty when the summary carries no metrics).
func (s *Summary) MetricsText() []byte {
	if s.Metrics == nil {
		return nil
	}
	return s.Metrics.Text()
}

// JSON encodes the summary deterministically (indented, sorted map keys).
// The bytes are json.MarshalIndent's. Each result is indented from the
// encoding it holds, and the output buffer is allocated once, at its exact
// length.
func (s *Summary) JSON() ([]byte, error) {
	h := *s
	h.Results = nil
	head, err := json.Marshal(&h)
	if err != nil {
		return nil, err
	}
	// head ends `"results":null}`: the results go in place of the null.
	head = head[:len(head)-len("null}")]
	return indentDoc(func(w io.Writer) error {
		w.Write(head)
		if err := WriteResults(w, s.Results); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}")
		return err
	})
}

// Render prints the human-readable report.
func (s *Summary) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d scenarios, %d successes, %d errors, %d escalations\n",
		s.Scenarios, s.Successes, s.Errors, s.Escalations)
	if s.Panics > 0 || s.Timeouts > 0 || s.Retries > 0 {
		fmt.Fprintf(&b, "hardening: %d panics isolated, %d deadline timeouts, %d transient-fault retries\n",
			s.Panics, s.Timeouts, s.Retries)
	}
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ks := s.ByKind[Kind(k)]
		fmt.Fprintf(&b, "  %-18s %4d runs  %4d ok (%5.1f%%)  %4d escalations  %d errors\n",
			k, ks.Runs, ks.Successes, ks.SuccessRate*100, ks.Escalations, ks.Errors)
	}
	if len(s.WindowPaths) > 0 {
		b.WriteString("window paths:\n")
		paths := make([]string, 0, len(s.WindowPaths))
		for p := range s.WindowPaths {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Fprintf(&b, "  %-40s %d\n", p, s.WindowPaths[p])
		}
	}
	if len(s.DKASAN) > 0 {
		b.WriteString("D-KASAN report classes:\n")
		for _, c := range dkasanClasses {
			fmt.Fprintf(&b, "  %-20s %d\n", c, s.DKASAN[c])
		}
	}
	fmt.Fprintf(&b, "forensics: %d trace events retained, %d dropped; %d attack-log lines capped\n",
		s.TraceEvents, s.TraceDropped, s.StepsDropped)
	return b.String()
}
