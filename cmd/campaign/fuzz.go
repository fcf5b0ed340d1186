package main

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/cliutil"
	"dmafault/internal/fuzz"
	"dmafault/internal/resultstore"

	"log/slog"
)

type fuzzOptions struct {
	Attempts int
	WallTime time.Duration
	Batch    int
	Corpus   string
	Resume   bool
	Minimize int
	// Cache replays recorded scenario results instead of executing (nil:
	// every attempt executes); RequireCached fails the run on any miss.
	Cache         *resultstore.Store
	RequireCached bool
}

// runFuzz executes the coverage-guided fuzz loop and renders its report the
// same way fixed campaigns render summaries (-json/-out respected).
func runFuzz(cf *cliutil.Flags, log *slog.Logger, opt fuzzOptions) error {
	cfg := fuzz.Config{
		Seed:           *cf.Seed,
		Workers:        *cf.Workers,
		Attempts:       opt.Attempts,
		WallTime:       opt.WallTime,
		Batch:          opt.Batch,
		CorpusPath:     opt.Corpus,
		Resume:         opt.Resume,
		MinimizeBudget: opt.Minimize,
	}
	if opt.Cache != nil {
		cfg.Cache = opt.Cache
	}
	if log.Enabled(context.Background(), slog.LevelInfo) {
		cfg.OnRound = func(st fuzz.RoundStats) {
			log.Info("fuzz round", "round", st.Round, "execs", st.Execs,
				"corpus", st.CorpusSize, "signatures", st.Signatures, "novel", st.Novel)
		}
	}
	start := time.Now()
	rep, err := fuzz.Run(context.Background(), cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := emit(cf, rep.JSON, func() string { return renderFuzzReport(rep) }); err != nil {
		return err
	}
	log.Info("fuzz complete", "execs", rep.Execs+rep.MinimizeExecs,
		"elapsed", elapsed.Round(time.Millisecond).String())
	if opt.Cache != nil {
		st := opt.Cache.Stats()
		log.Info("result cache", "path", st.Path, "hits", st.Hits,
			"misses", st.Misses, "records", st.Records)
		if opt.RequireCached && st.Misses > 0 {
			return fmt.Errorf("require-cached: %d attempts missed the cache and executed", st.Misses)
		}
	}
	return nil
}

// renderFuzzReport is the fuzz report's text form: the headline, then one
// indented line per signature.
func renderFuzzReport(rep *fuzz.Report) string {
	var b strings.Builder
	fmt.Fprintln(&b, rep.String())
	for _, sig := range rep.Signatures {
		fmt.Fprintln(&b, "  "+sig)
	}
	return b.String()
}

// emptyRun reports (and handles) the nothing-to-do case: zero scenarios
// after generation, loading, or resume filtering. Returns true when the
// caller should exit successfully without running the engine or opening a
// journal.
func emptyRun(w io.Writer, scenarios []campaign.Scenario, jsonOut bool) bool {
	if len(scenarios) != 0 {
		return false
	}
	if jsonOut {
		fmt.Fprintln(w, `{"scenarios":0,"note":"nothing to do"}`)
	} else {
		fmt.Fprintln(w, "campaign: nothing to do (0 scenarios)")
	}
	return true
}
