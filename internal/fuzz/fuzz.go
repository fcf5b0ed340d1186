package fuzz

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"dmafault/internal/campaign"
)

// Defaults for Config's zero values.
const (
	// DefaultBudget is the execution budget when neither Attempts nor
	// WallTime bounds the run.
	DefaultBudget = 64
	// DefaultBatch is the scenarios-per-round batch size.
	DefaultBatch = 16
	// DefaultMinimizeBudget is the per-entry execution budget of the
	// minimization pass.
	DefaultMinimizeBudget = 12
)

// Config parameterizes one fuzz run.
type Config struct {
	// Seed drives every scheduling and mutation decision. Equal (Seed,
	// budget, corpus) runs produce byte-identical reports and corpus files
	// at any worker count.
	Seed int64
	// Workers sizes the engine pool per batch (<=0: one per CPU).
	Workers int
	// Attempts is the execution budget (<=0: DefaultBudget, unless WallTime
	// bounds the run instead).
	Attempts int
	// WallTime optionally bounds the run by wall clock, checked at round
	// boundaries. Wall-bounded runs trade away cross-run byte-identity —
	// the round count depends on machine speed — so tests and reproducible
	// campaigns should budget by Attempts.
	WallTime time.Duration
	// Batch is the scenarios per engine round (<=0: DefaultBatch). Corpus
	// and scheduling state advance only between rounds.
	Batch int
	// CorpusPath persists the corpus as a record log (empty: memory only).
	CorpusPath string
	// Resume reloads an existing corpus at CorpusPath instead of truncating.
	Resume bool
	// MinimizeBudget is the per-entry budget of the post-run minimization
	// pass (0: DefaultMinimizeBudget; negative: skip minimization).
	MinimizeBudget int
	// OnRound, if set, observes coverage counters after every round (called
	// from the fuzz loop's own goroutine).
	OnRound func(RoundStats)
	// OnResult, if set, observes each finished execution (called from
	// engine worker goroutines; exec is the run-global execution index).
	OnResult func(exec int, r *campaign.Result)
	// Cache, if set, is a shared scenario-result store consulted before
	// every execution (batch and minimization alike). Because results are
	// deterministic, a cached run is indistinguishable from a live one —
	// signatures, corpus growth, and the report are byte-identical.
	Cache campaign.Store
	// OnCacheHit, if set, observes each batch execution served from Cache
	// (called from engine worker goroutines, like OnResult).
	OnCacheHit func(exec int)
}

// RoundStats is the live coverage counter set published after each round.
type RoundStats struct {
	Round      int `json:"round"`
	Execs      int `json:"execs"`
	CorpusSize int `json:"corpus_size"`
	Signatures int `json:"signatures"`
	// Novel is the novel-signature count of this round alone.
	Novel int `json:"novel"`
}

// Report is the deterministic outcome of a fuzz run.
type Report struct {
	Seed               int64    `json:"seed"`
	Execs              int      `json:"execs"`
	Rounds             int      `json:"rounds"`
	CorpusSize         int      `json:"corpus_size"`
	DistinctSignatures int      `json:"distinct_signatures"`
	Novel              int      `json:"novel_total"`
	MinimizeExecs      int      `json:"minimize_execs,omitempty"`
	MinimizedEntries   int      `json:"minimized_entries,omitempty"`
	Signatures         []string `json:"signatures"`
}

// JSON renders the report with stable indentation.
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// Run executes one coverage-guided fuzz campaign: seed the corpus (one
// scenario per kind on a fresh corpus), then repeatedly draw energy-weighted
// parents, mutate, execute the batch on the campaign engine, and admit every
// result whose signature is new. After the budget is spent, corpus entries
// are minimized. On cancellation the partial report is returned alongside
// the context's error; the corpus file holds everything completed so far.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	var corpus *Corpus
	var err error
	if cfg.CorpusPath != "" {
		corpus, err = OpenCorpus(cfg.CorpusPath, cfg.Resume)
		if err != nil {
			return nil, err
		}
	} else {
		corpus = NewCorpus()
	}
	defer corpus.Close()

	budget := cfg.Attempts
	if budget <= 0 {
		if cfg.WallTime > 0 {
			budget = 1 << 30 // wall clock is the bound
		} else {
			budget = DefaultBudget
		}
	}
	batchSize := cfg.Batch
	if batchSize <= 0 {
		batchSize = DefaultBatch
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xFA22))
	seen := map[string]bool{}
	for _, e := range corpus.Entries() {
		seen[e.Key] = true
	}
	rep := &Report{Seed: cfg.Seed}
	finish := func() {
		rep.CorpusSize = corpus.Len()
		rep.Signatures = corpus.Signatures()
		rep.DistinctSignatures = len(rep.Signatures)
		for _, e := range corpus.Entries() {
			if e.Minimized {
				rep.MinimizedEntries++
			}
		}
	}

	start := time.Now()
	seq := 0
	for rep.Execs < budget {
		if cfg.WallTime > 0 && time.Since(start) >= cfg.WallTime {
			break
		}
		if err := ctx.Err(); err != nil {
			finish()
			return rep, err
		}
		n := budget - rep.Execs
		if n > batchSize {
			n = batchSize
		}
		batch, parents, keys := plan(rng, corpus, seen, n, cfg.Seed, &seq)

		results := make([]*campaign.Result, len(batch))
		execBase := rep.Execs
		eng := campaign.Engine{Workers: cfg.Workers, Cache: cfg.Cache, OnResult: func(i int, r *campaign.Result) {
			results[i] = r
			if cfg.OnResult != nil {
				cfg.OnResult(execBase+i, r)
			}
		}}
		if cfg.OnCacheHit != nil {
			eng.OnCacheHit = func(i int) { cfg.OnCacheHit(execBase + i) }
		}
		if _, err := eng.RunCtx(ctx, batch); err != nil {
			finish()
			return rep, err
		}

		// Corpus and energy state advance strictly in input order, so the
		// round's outcome is independent of worker scheduling.
		novelThis := 0
		for i, r := range results {
			sig := Signature(r)
			novel := !corpus.HasSignature(sig)
			if novel {
				novelThis++
				spec := batch[i]
				spec.ID = ""
				if err := corpus.Add(Entry{Key: keys[i], Scenario: spec, Signature: sig, Round: rep.Rounds}); err != nil {
					finish()
					return rep, err
				}
			}
			corpus.Observe(parents[i], novel)
		}
		if err := corpus.FlushStats(); err != nil {
			finish()
			return rep, err
		}
		rep.Execs += len(batch)
		rep.Rounds++
		rep.Novel += novelThis
		if cfg.OnRound != nil {
			cfg.OnRound(RoundStats{Round: rep.Rounds, Execs: rep.Execs,
				CorpusSize: corpus.Len(), Signatures: len(corpus.Signatures()), Novel: novelThis})
		}
	}

	if cfg.MinimizeBudget >= 0 {
		per := cfg.MinimizeBudget
		if per == 0 {
			per = DefaultMinimizeBudget
		}
		for _, e := range corpus.MinimizationQueue() {
			used, err := minimizeEntry(ctx, &cfg, corpus, e, per)
			rep.MinimizeExecs += used
			if err != nil {
				finish()
				return rep, err
			}
		}
	}
	finish()
	return rep, nil
}

// plan assembles one round's batch: seed scenarios while the corpus is
// empty, energy-scheduled mutants afterwards. Children are deduplicated
// against every key this run has scheduled (a handful of redraws, then the
// duplicate is accepted and simply burns budget — determinism over purity).
func plan(rng *rand.Rand, corpus *Corpus, seen map[string]bool, n int, baseSeed int64, seq *int) (batch []campaign.Scenario, parents, keys []string) {
	if corpus.Len() == 0 {
		seeds := seedScenarios(baseSeed)
		if len(seeds) > n {
			seeds = seeds[:n]
		}
		for _, s := range seeds {
			key := campaign.ScenarioKey(s)
			seen[key] = true
			batch = append(batch, s)
			parents = append(parents, "")
			keys = append(keys, key)
		}
		return batch, parents, keys
	}
	for j := 0; j < n; j++ {
		var child campaign.Scenario
		var key, parentKey string
		for try := 0; ; try++ {
			parent := corpus.PickParent(rng)
			child = mutate(rng, parent.Scenario, baseSeed, *seq)
			*seq++
			key = campaign.ScenarioKey(child)
			parentKey = parent.Key
			if !seen[key] || try >= 8 {
				break
			}
		}
		seen[key] = true
		batch = append(batch, child)
		parents = append(parents, parentKey)
		keys = append(keys, key)
	}
	return batch, parents, keys
}

// String summarizes the report for logs.
func (rep *Report) String() string {
	return fmt.Sprintf("fuzz: %d execs in %d rounds → %d corpus entries, %d distinct signatures (%d minimized, %d minimize execs)",
		rep.Execs, rep.Rounds, rep.CorpusSize, rep.DistinctSignatures, rep.MinimizedEntries, rep.MinimizeExecs)
}
