// Command perfbench is the repository benchmark. It runs one named workload
// against the simulator, fabric and record logs for a fixed wall-clock
// budget, checks that every output is correct, and prints the end-to-end
// metrics (tracing off) or, with --trace 1, the per-layer metrics of a
// separately traced run. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh from the repository root. Workloads, seeds,
// pinned reference values and the end-to-end metric each per-layer metric
// should move are recorded in manifest.json next to this file.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workers is the fixed simulation parallelism: the engine pool size, the
// GOMAXPROCS ceiling for the simulator's nested pools, and (with one lease
// per worker) the fabric's concurrent lease count. It is a constant so the
// load does not depend on the host the benchmark runs on.
const workers = 2

// workDir holds every file a run writes, under the repository root.
const workDir = ".bench_build"

//go:embed manifest.json
var manifestJSON []byte

// manifest is the benchmark's own record: seeds, pins and metric metadata.
type manifest struct {
	CrossCheck crossCheck                `json:"cross_check"`
	Workloads  map[string]*workloadEntry `json:"workloads"`
	EndToEnd   []metricDef               `json:"end_to_end"`
	PerLayer   []metricDef               `json:"per_layer"`
}

type crossCheck struct {
	BytesPerOp   float64 `json:"bench10_campaign_throughput_b_per_op"`
	ScenariosPer float64 `json:"scenarios_per_op"`
}

// workloadEntry is the part of a manifest workload the benchmark reads; the
// held-out seed and the reasons are for readers.
type workloadEntry struct {
	DefaultSeed int64 `json:"default_seed"`
	// SetupRepeats is how many times a run sets the workload up; setup_s
	// is the median.
	SetupRepeats int   `json:"setup_repeats"`
	Pins         *pins `json:"pins,omitempty"`
}

// pins are the deterministic outputs of a workload's reference set on its
// default seed: the summary hash and the simulated counters.
type pins struct {
	Scenarios     int                `json:"scenarios"`
	SummarySHA256 string             `json:"summary_sha256"`
	Counts        map[string]float64 `json:"counts"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload name (see manifest.json)")
		seed    = flag.Int64("seed", 0, "workload seed: the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 15, "measured wall time per phase")
		trace   = flag.Int("trace", 0, "1: add a traced run and print per-layer metrics")
	)
	flag.Parse()
	var man manifest
	if err := json.Unmarshal(manifestJSON, &man); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: manifest:", err)
		return 2
	}
	entry, ok := man.Workloads[*name]
	newW, known := workloadFactories[*name]
	if !ok || !known || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {%s} --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	runtime.GOMAXPROCS(workers)
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	spans := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
	b := &bench{
		man: &man, name: *name, seed: *seed, entry: entry, newW: newW,
		seconds: time.Duration(*seconds * float64(time.Second)), dir: dir,
		pinned: *seed == entry.DefaultSeed && entry.Pins != nil,
	}
	out, err := b.run(*trace == 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFactories))
	for n := range workloadFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation: set up, warm up, measure, check, report.
type bench struct {
	man     *manifest
	name    string
	seed    int64
	entry   *workloadEntry
	newW    func(seed int64) workload
	seconds time.Duration
	dir     string
	pinned  bool // the seed is the default seed and the manifest pins it

	problems []string // failed correctness checks
}

// maxPrintedFailures caps the CHECK FAILED lines of a run; a broken replay
// path fails every one of thousands of passes.
const maxPrintedFailures = 20

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	if len(b.problems) <= maxPrintedFailures {
		fmt.Printf("CHECK FAILED: %s\n", b.problems[len(b.problems)-1])
	}
}

func (b *bench) run(traced bool, spansPath string) (*result, error) {
	w, setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	defer w.close()
	fmt.Printf("workload %s seed %d: %d setups, median %.4f s (%s)\n",
		b.name, b.seed, len(setupS), median(setupS), fmtFloats(setupS))
	if err := w.warmup(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain, err := b.measure(w, nil)
	if err != nil {
		return nil, err
	}
	b.checkReference(w)
	e2e := b.endToEnd(plain, setupS)
	b.printEndToEnd("untraced", plain, e2e)
	if b.name == "campaign-cold" {
		b.printCrossCheck(e2e["host_alloc_mb_per_scenario"].Value)
	}
	attempted, failed := plain.scenarios, plain.failed
	metrics := e2e
	if traced {
		tr := newTracing()
		tph, err := b.measure(w, tr)
		if err != nil {
			return nil, err
		}
		attempted += tph.scenarios
		failed += tph.failed
		te2e := b.endToEnd(tph, setupS)
		b.printEndToEnd("traced", tph, te2e)
		b.printOverhead(e2e, te2e)
		if err := b.replayLayers(w, tr); err != nil {
			return nil, err
		}
		metrics = b.perLayer(w, plain, tr)
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s (+ probe spans in %s)\n", spansPath, probePath(spansPath))
	}
	out := &result{Correct: len(b.problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if !out.Correct {
		fmt.Printf("%d correctness checks failed\n", len(b.problems))
		// A failed correctness check fails every scenario of the run.
		out.Failed = out.Attempted
	}
	fmt.Printf("error_rate = %.4f (%d of %d scenarios failed)\n",
		float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)
	return out, nil
}

// setup builds the workload SetupRepeats times in fresh directories, keeps
// the last instance and reports every set-up time.
func (b *bench) setup() (workload, []float64, error) {
	var times []float64
	var w workload
	for i := 0; i < b.entry.SetupRepeats; i++ {
		if w != nil {
			w.close()
		}
		d := filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(d, 0o755); err != nil {
			return nil, nil, err
		}
		w = b.newW(b.seed)
		start := time.Now()
		err := w.setup(d)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
	}
	return w, times, nil
}

// phase is one measured phase: consecutive passes until the wall budget is
// spent.
type phase struct {
	passes    int
	scenarios int
	failed    int
	wall      time.Duration
	alloc     uint64
	latencies []time.Duration
	// peaks holds each pass's peak resident set in bytes; peak_rss_mb is
	// their mean. A pass's peak steps by whole machine images (about
	// 150 MB) with garbage-collection timing, so the phase's single highest
	// reading, or a median of the steps, jumps between runs.
	peaks []float64
	rt    runtimeDelta
	// rates holds the throughput of consecutive windows of at least
	// rateWindow of pass wall time; scenarios_per_s is their median, so a
	// burst of host contention moves one window rather than the result.
	rates  []float64
	window struct {
		scenarios int
		wall      time.Duration
	}
}

const rateWindow = time.Second

// addPass accounts one measured pass.
func (ph *phase) addPass(ps *passStats) {
	ph.passes++
	ph.scenarios += ps.scenarios
	ph.failed += ps.failed
	ph.wall += ps.wall
	ph.alloc += ps.alloc
	ph.latencies = append(ph.latencies, ps.latencies...)
	ph.window.scenarios += ps.scenarios
	ph.window.wall += ps.wall
	if ph.window.wall >= rateWindow {
		ph.rates = append(ph.rates, float64(ph.window.scenarios)/ph.window.wall.Seconds())
		ph.window.scenarios, ph.window.wall = 0, 0
	}
}

func (b *bench) measure(w workload, tr *tracing) (*phase, error) {
	settle()
	ph := &phase{}
	sampler := startHeapSampler()
	before := readRuntime()
	for ph.passes == 0 || ph.wall < b.seconds {
		resetPeakRSS()
		ps, err := w.pass(tr)
		if err != nil {
			sampler.stop()
			return nil, fmt.Errorf("pass %d: %w", ph.passes, err)
		}
		ph.peaks = append(ph.peaks, peakRSS())
		ph.addPass(ps)
		for _, p := range ps.problems {
			b.fail("pass %d: %s", ph.passes-1, p)
		}
	}
	if ph.window.scenarios > 0 && len(ph.rates) == 0 {
		// A phase shorter than one window.
		ph.rates = append(ph.rates, float64(ph.window.scenarios)/ph.window.wall.Seconds())
	}
	ph.rt = readRuntime().since(before)
	ph.rt.heapPeak = sampler.stop()
	return ph, nil
}

// checkReference compares the reference set's deterministic outputs with the
// pins on the default seed, and prints them for every seed.
func (b *bench) checkReference(w workload) {
	ref := w.reference()
	counts := simulatedCounts(ref.summary)
	got := pins{Scenarios: ref.summary.Scenarios, SummarySHA256: sha256Hex(ref.json), Counts: counts}
	line, _ := json.Marshal(got)
	fmt.Printf("reference (%d scenarios): %s\n", got.Scenarios, line)
	if !b.pinned {
		return
	}
	want := b.entry.Pins
	if want.Scenarios != got.Scenarios {
		b.fail("reference set has %d scenarios, pinned %d", got.Scenarios, want.Scenarios)
	}
	if want.SummarySHA256 != got.SummarySHA256 {
		b.fail("reference summary sha256 %s, pinned %s", got.SummarySHA256, want.SummarySHA256)
	}
	for _, k := range sortedKeys(want.Counts) {
		if counts[k] != want.Counts[k] {
			b.fail("simulated count %s = %v, pinned %v", k, counts[k], want.Counts[k])
		}
	}
	for _, k := range sortedKeys(counts) {
		if _, ok := want.Counts[k]; !ok {
			b.fail("simulated count %s = %v is not pinned", k, counts[k])
		}
	}
}

func (b *bench) endToEnd(ph *phase, setupS []float64) map[string]metricValue {
	n := float64(ph.scenarios)
	lat := durationsMS(ph.latencies)
	vals := map[string]float64{
		"setup_s":                    median(setupS),
		"scenarios_per_s":            median(ph.rates),
		"scenario_ms_p50":            percentile(lat, 50),
		"scenario_ms_p90":            percentile(lat, 90),
		"host_alloc_mb_per_scenario": float64(ph.alloc) / n / 1e6,
		"peak_rss_mb":                mean(ph.peaks) / 1e6,
	}
	out := map[string]metricValue{}
	for _, d := range b.man.EndToEnd {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func (b *bench) printEndToEnd(label string, ph *phase, m map[string]metricValue) {
	fmt.Printf("%s: %d passes, %d scenarios in %.3f s of measured wall time (%.4f scenarios/s overall)\n",
		label, ph.passes, ph.scenarios, ph.wall.Seconds(), float64(ph.scenarios)/ph.wall.Seconds())
	samples := map[string]int{
		"setup_s": b.entry.SetupRepeats, "scenario_ms_p50": len(ph.latencies),
		"scenario_ms_p90": len(ph.latencies), "scenarios_per_s": len(ph.rates),
		"host_alloc_mb_per_scenario": ph.scenarios, "peak_rss_mb": len(ph.peaks),
	}
	for _, d := range b.man.EndToEnd {
		note := ""
		if d.Name == "scenario_ms_p90" {
			note = fmt.Sprintf(", %d samples beyond p90", len(ph.latencies)-(len(ph.latencies)*9+9)/10)
		}
		fmt.Printf("  %-28s %14.4f %-6s (n=%d%s)\n", d.Name, m[d.Name].Value, d.Unit, samples[d.Name], note)
	}
}

func (b *bench) printOverhead(plain, traced map[string]metricValue) {
	fmt.Println("tracing overhead (traced / untraced):")
	for _, d := range b.man.EndToEnd {
		if d.Name == "setup_s" {
			continue
		}
		p, t := plain[d.Name].Value, traced[d.Name].Value
		fmt.Printf("  %-28s %14.4f -> %14.4f %-6s (x%.3f)\n", d.Name, p, t, d.Unit, t/p)
	}
}

// printCrossCheck compares campaign-cold's allocation per scenario with the
// older whole-figure benchmark, which ran MixedPreset(8, 2021) per op.
func (b *bench) printCrossCheck(mb float64) {
	cc := b.man.CrossCheck
	old := cc.BytesPerOp / cc.ScenariosPer / 1e6
	fmt.Printf("cross-check: host_alloc_mb_per_scenario %.1f MB vs BENCH_10 BenchmarkCampaignThroughput B/op / %g = %.1f MB (%+.1f%%)\n",
		mb, cc.ScenariosPer, old, 100*(mb-old)/old)
}

func probePath(spans string) string {
	return strings.TrimSuffix(spans, ".jsonl") + ".probe.jsonl"
}
