package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/resultstore"
)

// workload is one benchmark workload. setup is timed and repeated; warmup
// runs one discarded pass; pass runs one measured operation. With a non-nil
// tracing every pass also records spans and layer statistics.
type workload interface {
	setup(dir string) error
	warmup() error
	pass(tr *tracing) (*passStats, error)
	// reference is the workload's deterministic reference set: the
	// scenarios the traced run replays layer by layer, the engine's results
	// for them, and the summary pinned on the default seed.
	reference() *reference
	close()
}

type reference struct {
	scenarios []campaign.Scenario // normalized, as the engine ran them
	summary   *campaign.Summary
	json      []byte
}

// passStats is what one measured pass did. Problems are failed correctness
// checks.
type passStats struct {
	scenarios int
	failed    int
	wall      time.Duration
	alloc     uint64
	latencies []time.Duration
	problems  []string
}

var workloadFactories = map[string]func(seed int64) workload{
	"campaign-cold":    func(seed int64) workload { return &engineWorkload{seed: seed, spec: coldSpec, logs: true} },
	"campaign-attacks": func(seed int64) workload { return &engineWorkload{seed: seed, spec: attackSpec} },
	"campaign-replay":  func(seed int64) workload { return &replayWorkload{seed: seed} },
	"fabric-replay":    func(seed int64) workload { return &fabricWorkload{seed: seed} },
}

// configSpec describes the scenario configurations of an engine workload:
// `per` configurations of each kind, the earliest of that kind in the
// generator's stream for knobSeed.
type configSpec struct {
	kinds []campaign.Kind
	per   int
	// stream returns the first n scenarios of a prefix-stable stream drawn
	// for seed.
	stream func(n int, seed int64) []campaign.Scenario
}

var coldSpec = configSpec{
	kinds:  []campaign.Kind{campaign.KindBootStudy, campaign.KindRingFlood, campaign.KindWindowLadder},
	per:    2,
	stream: campaign.MixedPreset,
}

var attackKinds = []campaign.Kind{campaign.KindPoisonedTX, campaign.KindForwardThinking,
	campaign.KindWindowLadder, campaign.KindPageSpray, campaign.KindDKASAN}

var attackSpec = configSpec{
	kinds: attackKinds,
	per:   2,
	stream: func(n int, seed int64) []campaign.Scenario {
		m := campaign.NewMutator(campaign.Scenario{Seed: seed, Trials: 4, Attempts: 2, Iterations: 6}, seed)
		m.Kinds = attackKinds
		return m.Generate(n)
	},
}

// knobSeed draws the configurations (kind, IOMMU mode, kernel, driver,
// queues, jitter amplitude, forwarding, hardening) of the engine workloads.
// Every pass runs the same configurations, and the run's --seed and the
// pass index move only each scenario's own seed (KASLR slide, kernel text
// image, boot jitter, attack randomness). So the cost of a pass depends on
// neither the seed nor how many passes a run gets through, and no measured
// scenario has run before in the process. On knobSeed, pass 0 is the
// generator's own scenarios.
const knobSeed = 2021

// Scenario seed shifts: a run's seed moves every scenario seed by
// seedShift, pass i by a further i*passShift and the warm-up pass by
// warmupShift, 128 passes away; a run makes far fewer passes.
const (
	passShift   = 1 << 24
	warmupShift = 1 << 31
)

func seedShift(seed int64) int64 { return (seed - knobSeed) << 32 }

// configs returns the spec's configurations in stream order.
func (c configSpec) configs() []campaign.Scenario {
	for n := 64 * c.per * len(c.kinds); ; n *= 2 {
		quota := map[campaign.Kind]int{}
		for _, k := range c.kinds {
			quota[k] = c.per
		}
		var out []campaign.Scenario
		for _, s := range c.stream(n, knobSeed) {
			if quota[s.Kind] > 0 {
				quota[s.Kind]--
				out = append(out, s)
			}
		}
		if len(out) == c.per*len(c.kinds) {
			return out
		}
	}
}

// shifted returns a copy of set with every scenario seed moved by shift.
func shifted(set []campaign.Scenario, shift int64) []campaign.Scenario {
	out := append([]campaign.Scenario(nil), set...)
	for i := range out {
		out[i].Seed += shift
	}
	return out
}

// engineRun times one Engine pass: opening its record logs (open), the run,
// closing the logs (close) and encoding the summary JSON.
type engineRun struct {
	eng   campaign.Engine
	open  func(e *campaign.Engine) error
	close func() error
}

func (er engineRun) run(set []campaign.Scenario) (*campaign.Summary, []byte, *passStats, int, error) {
	claims := make([]time.Time, len(set))
	lats := make([]time.Duration, len(set))
	var hits atomic.Int64
	eng := er.eng
	eng.Workers = workers
	eng.OnClaim = func(i int) { claims[i] = time.Now() }
	eng.OnResult = func(i int, _ *campaign.Result) { lats[i] = time.Since(claims[i]) }
	eng.OnCacheHit = func(int) { hits.Add(1) }
	a0 := heapAllocs()
	start := time.Now()
	if er.open != nil {
		if err := er.open(&eng); err != nil {
			return nil, nil, nil, 0, err
		}
	}
	sum, err := eng.Run(set)
	if er.close != nil {
		if cerr := er.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, nil, nil, 0, err
	}
	js, err := sum.JSON()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ps := &passStats{scenarios: len(set), wall: time.Since(start), alloc: heapAllocs() - a0, latencies: lats}
	for _, r := range sum.Results {
		if failedResult(r) {
			ps.failed++
			ps.problems = append(ps.problems, fmt.Sprintf("scenario %s failed: %s %s", r.ID, r.Outcome, r.Err))
		}
	}
	return sum, js, ps, int(hits.Load()), nil
}

// failedResult reports a scenario that did not run to completion.
func failedResult(r *campaign.Result) bool {
	return r.Err != "" || r.Outcome == campaign.OutcomePanic || r.Outcome == campaign.OutcomeTimeout
}

func normalized(set []campaign.Scenario) []campaign.Scenario {
	out := append([]campaign.Scenario(nil), set...)
	for i := range out {
		out[i].Normalize(i)
	}
	return out
}

// engineWorkload runs the spec's configurations through the engine once per
// pass, with fresh scenario seeds: campaign-cold (with a fresh journal and
// result store per pass) and campaign-attacks (neither).
type engineWorkload struct {
	seed    int64
	spec    configSpec
	logs    bool
	dir     string
	configs []campaign.Scenario
	passes  int
	ref     *reference
}

func (w *engineWorkload) setup(dir string) error {
	w.dir = dir
	w.configs = w.spec.configs()
	return nil
}

func (w *engineWorkload) warmup() error {
	_, _, _, err := w.runPass(shifted(w.configs, seedShift(w.seed)+warmupShift), "warmup", nil)
	return err
}

func (w *engineWorkload) pass(tr *tracing) (*passStats, error) {
	set := shifted(w.configs, seedShift(w.seed)+int64(w.passes)*passShift)
	sum, js, ps, err := w.runPass(set, fmt.Sprintf("pass-%d", w.passes), tr)
	if err != nil {
		return nil, err
	}
	if w.passes == 0 {
		w.ref = &reference{scenarios: normalized(set), summary: sum, json: js}
	}
	w.passes++
	return ps, nil
}

func (w *engineWorkload) runPass(set []campaign.Scenario, name string, tr *tracing) (*campaign.Summary, []byte, *passStats, error) {
	d := filepath.Join(w.dir, name)
	if err := os.Mkdir(d, 0o755); err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(d)
	jpath, spath := filepath.Join(d, "journal.jsonl"), filepath.Join(d, "results.log")
	er := engineRun{eng: campaign.Engine{Obs: tr.obs()}}
	if w.logs {
		var j *campaign.Journal
		var st *resultstore.Store
		er.open = func(e *campaign.Engine) error {
			var err error
			if st, err = resultstore.Open(spath); err != nil {
				return err
			}
			if j, err = campaign.OpenJournal(jpath, set, false); err != nil {
				st.Close()
				return err
			}
			e.Cache, e.Journal = tr.wrapStore(st), j
			return nil
		}
		er.close = func() error {
			jerr := j.Close()
			if err := st.Close(); err != nil {
				return err
			}
			return jerr
		}
	}
	sum, js, ps, _, err := er.run(set)
	if err != nil {
		return nil, nil, nil, err
	}
	if w.logs {
		ps.problems = append(ps.problems, checkLogs(jpath, spath, set, sum)...)
		tr.noteLogs(jpath, spath, len(set))
	}
	tr.noteEnginePass(set, sum, ps.wall)
	return sum, js, ps, nil
}

// checkLogs reads the pass's journal and result store back from disk and
// compares every record with the engine's result.
func checkLogs(jpath, spath string, set []campaign.Scenario, sum *campaign.Summary) []string {
	var problems []string
	recs, err := campaign.LoadJournal(jpath, set)
	if err != nil {
		return []string{"journal: " + err.Error()}
	}
	st, err := resultstore.Open(spath)
	if err != nil {
		return []string{"result store: " + err.Error()}
	}
	defer st.Close()
	if len(recs) != len(set) || st.Len() != len(set) {
		problems = append(problems, fmt.Sprintf("record logs hold %d journal and %d store records for %d scenarios",
			len(recs), st.Len(), len(set)))
	}
	for i, s := range normalized(set) {
		r := sum.Results[i]
		if !sameJSON(recs[i], r) {
			problems = append(problems, fmt.Sprintf("journal record %d differs from the engine result", i))
		}
		stored, ok := st.Get(campaign.ScenarioDigest(s))
		blank := *r
		blank.ID = ""
		if !ok || !sameJSON(stored, &blank) {
			problems = append(problems, fmt.Sprintf("result store record %d missing or different", i))
		}
	}
	return problems
}

func sameJSON(a, b any) bool {
	x, err1 := json.Marshal(a)
	y, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(x, y)
}

func (w *engineWorkload) reference() *reference { return w.ref }
func (w *engineWorkload) close()                {}

// replayWorkload is campaign-replay: campaign-cold's configurations, executed
// once during set-up into a result store, then re-run every pass with the
// store as cache and a fresh journal, so every scenario is a cache hit.
type replayWorkload struct {
	seed   int64
	dir    string
	store  *resultstore.Store
	ref    *reference
	passes int
}

func (w *replayWorkload) setup(dir string) error {
	return w.fill(dir, shifted(coldSpec.configs(), seedShift(w.seed)), nil)
}

// fill executes set cold into a fresh result store in dir. Its summary is
// the reference every pass must reproduce, so a failed scenario fails fill.
func (w *replayWorkload) fill(dir string, set []campaign.Scenario, tr *tracing) error {
	w.dir = dir
	var err error
	if w.store, err = resultstore.Open(filepath.Join(dir, "results.log")); err != nil {
		return err
	}
	er := engineRun{eng: campaign.Engine{Obs: tr.obs(), Cache: tr.wrapStore(w.store)}}
	sum, js, ps, _, err := er.run(set)
	if err != nil {
		return err
	}
	if len(ps.problems) > 0 {
		return fmt.Errorf("cold fill: %v", ps.problems)
	}
	tr.noteEnginePass(set, sum, ps.wall)
	w.ref = &reference{scenarios: normalized(set), summary: sum, json: js}
	return nil
}

func (w *replayWorkload) warmup() error {
	_, err := w.pass(nil)
	return err
}

func (w *replayWorkload) pass(tr *tracing) (*passStats, error) {
	set := w.ref.scenarios
	// A fresh file per pass, removed after it: truncating and rewriting one
	// file makes ext4 flush it on every close.
	w.passes++
	jpath := filepath.Join(w.dir, fmt.Sprintf("journal-%d.jsonl", w.passes))
	defer os.Remove(jpath)
	var j *campaign.Journal
	er := engineRun{
		eng: campaign.Engine{Obs: tr.obs(), Cache: tr.wrapStore(w.store)},
		open: func(e *campaign.Engine) error {
			var err error
			j, err = campaign.OpenJournal(jpath, set, false)
			e.Journal = j
			return err
		},
		close: func() error { return j.Close() },
	}
	sum, js, ps, hits, err := er.run(set)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(js, w.ref.json) {
		ps.problems = append(ps.problems, "replayed summary differs from the cold reference summary")
	}
	if hits != len(set) {
		ps.problems = append(ps.problems, fmt.Sprintf("%d of %d scenarios were cache hits", hits, len(set)))
	}
	tr.noteLogs(jpath, "", len(set))
	tr.noteStore(w.store)
	tr.noteEnginePass(set, sum, ps.wall)
	return ps, nil
}

func (w *replayWorkload) reference() *reference { return w.ref }

func (w *replayWorkload) close() {
	if w.store != nil {
		w.store.Close()
	}
}
