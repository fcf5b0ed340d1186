package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/fabric"
	"dmafault/internal/obs"
	"dmafault/internal/resultstore"
)

// tracing is the traced run's recorder. Spans (engine campaign -> scenario
// -> attempt, and the layer replay's scenario -> call spans) stay in memory
// until writeSpans. Layer statistics accumulate per scope: the workload's
// own traced work, then the coverage probe, which measures the layers the
// workload does not reach. Every method is a no-op on a nil *tracing, the
// untraced run.
type tracing struct {
	tracer    *obs.Tracer
	collector *obs.Collector
	// probeFrom is the number of spans collected before the probe began
	// (-1 while the workload scope is recording).
	probeFrom int
	main      *layerStats
	probe     *layerStats
	cur       *layerStats
}

func newTracing() *tracing {
	c := &obs.Collector{}
	main := newLayerStats()
	return &tracing{tracer: obs.NewTracer(c.Sink()), collector: c, probeFrom: -1,
		main: main, probe: newLayerStats(), cur: main}
}

func (t *tracing) obs() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// startProbe switches recording to the probe scope.
func (t *tracing) startProbe() {
	t.probeFrom = len(t.collector.Spans())
	t.cur = t.probe
}

// spans returns the workload-scope and probe-scope spans.
func (t *tracing) spans() (workload, probe []obs.Span) {
	all := t.collector.Spans()
	if t.probeFrom < 0 {
		return all, nil
	}
	return all[:t.probeFrom], all[t.probeFrom:]
}

func (t *tracing) writeSpans(path string) error {
	work, probe := t.spans()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	for _, out := range []struct {
		path  string
		spans []obs.Span
	}{{path, work}, {probePath(path), probe}} {
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := obs.WriteSpansJSONL(f, out.spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// layerStats accumulates named sums and sample counts.
type layerStats struct {
	mu   sync.Mutex
	sums map[string]float64
	ns   map[string]int
}

func newLayerStats() *layerStats {
	return &layerStats{sums: map[string]float64{}, ns: map[string]int{}}
}

func (l *layerStats) add(name string, v float64) {
	l.mu.Lock()
	l.sums[name] += v
	l.ns[name]++
	l.mu.Unlock()
}

func (l *layerStats) sum(name string) (float64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sums[name], l.ns[name]
}

// mean is the average of the named samples; ok is false without samples.
func (l *layerStats) mean(name string) (float64, bool) {
	s, n := l.sum(name)
	if n == 0 {
		return 0, false
	}
	return s / float64(n), true
}

// ratio is sum(num)/sum(den); ok is false while den has no samples.
func (l *layerStats) ratio(num, den string) (float64, bool) {
	a, _ := l.sum(num)
	b, n := l.sum(den)
	if n == 0 || b == 0 {
		return 0, false
	}
	return a / b, true
}

func sinceMS(start time.Time) float64 { return float64(time.Since(start)) / 1e6 }
func sinceUS(start time.Time) float64 { return float64(time.Since(start)) / 1e3 }

// timedStore times every result-store lookup and append.
type timedStore struct {
	inner campaign.Store
	st    *layerStats
}

func (t *tracing) wrapStore(s *resultstore.Store) campaign.Store {
	if t == nil {
		return s
	}
	return &timedStore{inner: s, st: t.cur}
}

func (s *timedStore) Get(d campaign.Digest) (*campaign.Result, bool) {
	start := time.Now()
	r, ok := s.inner.Get(d)
	s.st.add("resultstore.get_us", sinceUS(start))
	hit := 0.0
	if ok {
		hit = 1
	}
	s.st.add("resultstore.hits", hit)
	return r, ok
}

func (s *timedStore) Put(d campaign.Digest, r *campaign.Result) error {
	start := time.Now()
	err := s.inner.Put(d, r)
	s.st.add("resultstore.put_us", sinceUS(start))
	return err
}

// noteLogs records the on-disk size of a pass's journal and, when spath is
// set, its result store.
func (t *tracing) noteLogs(jpath, spath string, scenarios int) {
	if t == nil {
		return
	}
	if fi, err := os.Stat(jpath); err == nil {
		t.cur.add("campaign.journal_bytes", float64(fi.Size()))
		t.cur.add("campaign.journal_scenarios", float64(scenarios))
	}
	if spath == "" {
		return
	}
	if fi, err := os.Stat(spath); err == nil {
		t.cur.add("resultstore.bytes", float64(fi.Size()))
		t.cur.add("resultstore.records", float64(scenarios))
	}
}

// noteStore records the geometry of a long-lived result store.
func (t *tracing) noteStore(s *resultstore.Store) {
	if t == nil {
		return
	}
	st := s.Stats()
	t.cur.add("resultstore.bytes", float64(st.Bytes))
	t.cur.add("resultstore.records", float64(st.Records))
}

// noteEnginePass times, outside the measured pass, the engine steps that
// have public entry points: the scenario digest and the aggregation and
// encoding of the summary.
func (t *tracing) noteEnginePass(set []campaign.Scenario, sum *campaign.Summary, wall time.Duration) {
	if t == nil {
		return
	}
	t.cur.add("par.wall_s", wall.Seconds())
	for _, s := range normalized(set) {
		start := time.Now()
		campaign.ScenarioDigest(s)
		t.cur.add("campaign.digest_us", sinceUS(start))
	}
	start := time.Now()
	agg := campaign.Aggregate(sum.Results)
	t.cur.add("campaign.aggregate_ms", sinceMS(start))
	start = time.Now()
	if _, err := agg.JSON(); err == nil {
		t.cur.add("campaign.summary_json_ms", sinceMS(start))
	}
}

// noteFabric records one coordinator run's transport and phase numbers.
func (t *tracing) noteFabric(m *fabric.Metrics, lt *leaseTransport, scenarios int) {
	if t == nil {
		return
	}
	t.cur.add("fabric.scenarios", float64(scenarios))
	t.cur.add("fabric.shards", float64(m.LeasesGranted.Value()))
	t.cur.add("fabric.submits", float64(lt.submits.Load()))
	t.cur.add("fabric.submit_nanos", float64(lt.submitNanos.Load()))
	t.cur.add("fabric.polls", float64(lt.polls.Load()))
	t.cur.add("fabric.bytes", float64(lt.bytes.Load()))
	t.cur.add("fabric.releases", float64(m.Releases.Value()))
	t.cur.add("fabric.local_fallback_shards", float64(m.LocalFallback.Value()))
	t.cur.add("fabric.integrity_rejected", float64(m.IntegrityRejected.Value()))
	for phase, v := range phaseSums(m) {
		t.cur.add("fabric.phase_"+phase+"_s", v[0])
		t.cur.add("fabric.phase_"+phase+"_n", v[1])
	}
}
