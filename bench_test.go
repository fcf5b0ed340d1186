package dmafault

// One benchmark per table and figure of the paper, each regenerating the
// artifact through internal/experiments, plus micro-benchmarks for the
// performance claims (§5.2.1 invalidation costs) and the hot substrate
// operations. Run with: go test -bench=. -benchmem
//
// Absolute numbers are simulator numbers; the benchmarks assert the *shape*
// (who wins, by what factor) via each experiment's OK flag.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dmafault/internal/attacks"
	"dmafault/internal/campaign"
	"dmafault/internal/cminor"
	"dmafault/internal/core"
	"dmafault/internal/corpus"
	"dmafault/internal/dma"
	"dmafault/internal/experiments"
	"dmafault/internal/fabric"
	"dmafault/internal/faultd"
	"dmafault/internal/fuzz"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/metrics"
	"dmafault/internal/netstack"
	"dmafault/internal/obs"
	"dmafault/internal/resultstore"
	"dmafault/internal/spade"
)

// benchCfg keeps per-iteration work bounded; Sec53's full 256-boot study has
// its own dedicated benchmark below.
var benchCfg = experiments.Config{BootTrials: 12, CampaignAttempts: 3, Seed: 2021}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		o, err := experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if !o.OK {
			b.Fatalf("experiment %s did not reproduce the paper's claim:\n%s", id, o.Render())
		}
	}
}

func BenchmarkTable1_MemoryLayout(b *testing.B)      { runExperiment(b, "T1") }
func BenchmarkTable2_SPADE(b *testing.B)             { runExperiment(b, "T2") }
func BenchmarkFigure1_SubPageTypes(b *testing.B)     { runExperiment(b, "F1") }
func BenchmarkFigure2_SpadeTrace(b *testing.B)       { runExperiment(b, "F2") }
func BenchmarkFigure3_DKASAN(b *testing.B)           { runExperiment(b, "F3") }
func BenchmarkFigure4_SharedInfoAttack(b *testing.B) { runExperiment(b, "F4") }
func BenchmarkFigure5_PageFrag(b *testing.B)         { runExperiment(b, "F5") }
func BenchmarkFigure6_InvalidationWindow(b *testing.B) {
	runExperiment(b, "F6")
}
func BenchmarkFigure7_TimeWindows(b *testing.B)     { runExperiment(b, "F7") }
func BenchmarkFigure8_PoisonedTX(b *testing.B)      { runExperiment(b, "F8") }
func BenchmarkFigure9_ForwardThinking(b *testing.B) { runExperiment(b, "F9") }
func BenchmarkSec24_KASLRBreak(b *testing.B)        { runExperiment(b, "S2.4") }
func BenchmarkSec521_InvalidationCost(b *testing.B) { runExperiment(b, "S5.2.1") }
func BenchmarkSec53_RingFlood(b *testing.B)         { runExperiment(b, "S5.3") }
func BenchmarkSec6_EndToEnd(b *testing.B)           { runExperiment(b, "S6") }
func BenchmarkSec7_Mitigations(b *testing.B)        { runExperiment(b, "S7") }

// --- micro-benchmarks for the substrate operations the claims rest on ---

func newBenchSystem(b *testing.B, mode iommu.Mode) *core.System {
	b.Helper()
	sys, err := core.New(core.WithSeed(1), core.WithIOMMUMode(mode))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.IOMMU.CreateDomain("nic", 1); err != nil {
		b.Fatal(err)
	}
	return sys
}

// BenchmarkMapUnmapStrict/Deferred expose the §5.2.1 trade-off directly: the
// deferred mode exists because strict invalidation costs ~2000 cycles per
// unmap on the virtual clock (host-time difference shows the bookkeeping
// cost; virtual-time difference is asserted by Sec521).
func BenchmarkMapUnmapStrict(b *testing.B)   { benchMapUnmap(b, iommu.Strict) }
func BenchmarkMapUnmapDeferred(b *testing.B) { benchMapUnmap(b, iommu.Deferred) }

func benchMapUnmap(b *testing.B, mode iommu.Mode) {
	sys := newBenchSystem(b, mode)
	buf, err := sys.Mem.Slab.Kmalloc(0, 2048, "bench")
	if err != nil {
		b.Fatal(err)
	}
	cycle := func() {
		va, err := sys.Mapper.MapSingle(1, buf, 2048, dma.FromDevice)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Mapper.UnmapSingle(1, va, 2048, dma.FromDevice); err != nil {
			b.Fatal(err)
		}
	}
	// Run past the first deferred flush before measuring, so the page-table
	// nodes, flush queues and IOVA free lists already exist and even a
	// one-iteration run reports the steady-state cost of one map and unmap.
	for range 2 * iommu.DeferredQueueLimit {
		cycle()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkIOTLBInsertInvalidate is the IOTLB's per-domain cost: a fresh
// IOTLB filled past capacity (evicting in FIFO order), then every page
// inserted invalidated, as strict mode does on unmap. Allocation-gated:
// the ring and its index are built once, on the first insert.
func BenchmarkIOTLBInsertInvalidate(b *testing.B) {
	b.ReportAllocs()
	const pages = iommu.DefaultIOTLBCapacity + 64
	for i := 0; i < b.N; i++ {
		tlb := iommu.NewIOTLB(0)
		for p := range pages {
			tlb.Insert(iommu.IOVABase+iommu.IOVA(p)<<12, layout.PFN(p), iommu.PermWrite)
		}
		for p := range pages {
			tlb.Invalidate(iommu.IOVABase + iommu.IOVA(p)<<12)
		}
		if tlb.Len() != 0 || tlb.Evictions != 64 {
			b.Fatalf("%d entries left, %d evictions", tlb.Len(), tlb.Evictions)
		}
	}
}

// BenchmarkAddNIC is NIC ring setup alone: one mlx5 (Kernel 5.0) RX ring of
// 512 mapped buffers on a freshly booted machine, the boot untimed.
// Allocation-gated: every boot study and RingFlood scenario pays it per
// boot, so it is where the DMA mapping index and the IOMMU domain show.
func BenchmarkAddNIC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := core.New(core.WithSeed(int64(i)), core.WithIOMMUMode(iommu.Deferred))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := sys.AddNIC(1, netstack.DriverMlx5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIOTLBTranslate(b *testing.B) {
	sys := newBenchSystem(b, iommu.Strict)
	buf, _ := sys.Mem.Slab.Kmalloc(0, 2048, "bench")
	va, err := sys.Mapper.MapSingle(1, buf, 2048, dma.FromDevice)
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Bus.Write(1, va, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKmallocKfree(b *testing.B) {
	sys := newBenchSystem(b, iommu.Strict)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := sys.Mem.Slab.Kmalloc(0, 512, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Mem.Slab.Kfree(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageFragAlloc(b *testing.B) {
	sys := newBenchSystem(b, iommu.Strict)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := sys.Mem.Frag.Alloc(0, 2048, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Mem.Frag.Free(0, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBounceMapper quantifies the copy tax of the [47] mitigation
// relative to BenchmarkMapUnmapStrict.
func BenchmarkBounceMapper(b *testing.B) {
	sys := newBenchSystem(b, iommu.Strict)
	bm := dma.NewBounceMapper(sys.Mem, sys.Mapper)
	buf, _ := sys.Mem.Slab.Kmalloc(0, 2048, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, err := bm.MapSingle(1, buf, 1500, dma.Bidirectional)
		if err != nil {
			b.Fatal(err)
		}
		if err := bm.UnmapSingle(1, va, 1500, dma.Bidirectional); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBouncePool is the static-mapping variant of [47]: compare with
// BenchmarkBounceMapper (per-I/O map+copy) and BenchmarkMapUnmapStrict
// (zero-copy, per-I/O map): the pool trades pinned memory for the cheapest
// per-I/O cost of the three at equal security.
func BenchmarkBouncePool(b *testing.B) {
	sys := newBenchSystem(b, iommu.Strict)
	pool, err := dma.NewBouncePool(sys.Mem, sys.Mapper, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	buf, _ := sys.Mem.Slab.Kmalloc(0, 1500, "io")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va, err := pool.Map(buf, 1500, dma.Bidirectional)
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Unmap(va, 1500, dma.Bidirectional); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRXPathPerPacket(b *testing.B) {
	sys := newBenchSystem(b, iommu.Deferred)
	nic, err := sys.Net.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := nic.FillRX(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % len(nic.RXRing())
		if !nic.RXRing()[slot].Ready {
			b.StopTimer()
			if err := nic.FillRX(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		d := nic.RXRing()[slot]
		if err := sys.Bus.Write(1, d.IOVA, []byte("pkt")); err != nil {
			b.Fatal(err)
		}
		if err := nic.ReceiveOn(slot, 3, netstack.ProtoUDP, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpadeFullCorpus(b *testing.B) {
	var parsed []*cminor.File
	for _, sf := range corpus.Generate(corpus.Linux50) {
		f, err := cminor.Parse(sf.Name, sf.Content)
		if err != nil {
			b.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := spade.NewAnalyzer(parsed).Run()
		if rep.TotalCalls != 1019 {
			b.Fatal("corpus drift")
		}
	}
}

func BenchmarkBootOnce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, _, err := attacks.BootOnceOpts(attacks.Kernel50, int64(i), attacks.BootOptions{JitterPages: attacks.BootJitterPages}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignThroughput measures scenarios/sec through the campaign
// engine at several pool sizes. Scenarios are embarrassingly parallel
// (isolated simulated machines), so on a multi-core host throughput should
// scale with workers until it hits the core count; the summary stays
// byte-identical regardless (campaign package tests assert that).
func BenchmarkCampaignThroughput(b *testing.B) {
	set := campaign.MixedPreset(8, 2021)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := campaign.Engine{Workers: workers}
				sum, err := eng.Run(set)
				if err != nil {
					b.Fatal(err)
				}
				if sum.Scenarios != len(set) {
					b.Fatalf("ran %d scenarios, want %d", sum.Scenarios, len(set))
				}
			}
			b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// BenchmarkCampaignMetricsOverhead measures what the unified metrics layer
// costs on campaign throughput: the same scenario set with metric capture
// (registry attached at boot, per-scenario Gather, order-stable merge) vs
// the skip_metrics ablation. The acceptance budget is <5% — subsystems keep
// plain stats structs on their hot paths and pay only one Gather per
// scenario, so the delta should sit in the noise (numbers recorded in
// EXPERIMENTS.md).
func BenchmarkCampaignMetricsOverhead(b *testing.B) {
	for _, arm := range []struct {
		name string
		skip bool
	}{{"metrics=on", false}, {"metrics=off", true}} {
		set := campaign.MixedPreset(8, 2021)
		for i := range set {
			set[i].SkipMetrics = arm.skip
		}
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := campaign.Engine{Workers: 4}
				sum, err := eng.Run(set)
				if err != nil {
					b.Fatal(err)
				}
				if !arm.skip && sum.Metrics.Total("iommu_maps_total") == 0 {
					b.Fatal("metrics arm captured nothing")
				}
			}
			b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// BenchmarkCampaignObsOverhead measures what wall-clock span tracing costs
// on campaign throughput: the same scenario set with a tracer fanning out to
// the two sinks dmafaultd attaches (the histogram summarizer and the flight
// recorder) vs the nil tracer. Each scenario mints a scenario span, one
// attempt span per attempt, and shares one campaign root — a handful of
// time.Now calls, map copies, and ring appends per scenario. The acceptance
// budget is <5%; numbers are recorded in EXPERIMENTS.md.
func BenchmarkCampaignObsOverhead(b *testing.B) {
	set := campaign.MixedPreset(8, 2021)
	for _, arm := range []struct {
		name   string
		tracer func() *obs.Tracer
	}{
		{"obs=off", func() *obs.Tracer { return nil }},
		{"obs=on", func() *obs.Tracer {
			return obs.NewTracer(obs.NewSpanMetrics().Sink(), obs.NewRecorder(0).SpanSink())
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := campaign.Engine{Workers: 4, Obs: arm.tracer()}
				sum, err := eng.Run(set)
				if err != nil {
					b.Fatal(err)
				}
				if sum.Scenarios != len(set) {
					b.Fatalf("ran %d scenarios, want %d", sum.Scenarios, len(set))
				}
			}
			b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// BenchmarkCampaignHardeningOverhead measures what the hardened execution
// layer costs on a clean (no injected faults) campaign: the panic-isolation
// goroutine per attempt, the context plumbing, the nil-injector checks on
// every DMA write / translation / refill / allocation, and optionally the
// journal record append per scenario. The acceptance budget is <5% vs the
// pre-hardening engine — the guards are a goroutine spawn and a handful of
// nil checks per scenario, and the journal is one write per record. Numbers
// are recorded in EXPERIMENTS.md.
func BenchmarkCampaignHardeningOverhead(b *testing.B) {
	set := campaign.MixedPreset(8, 2021)
	for _, arm := range []struct {
		name    string
		journal bool
	}{{"journal=off", false}, {"journal=on", true}} {
		b.Run(arm.name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				eng := campaign.Engine{Workers: 4}
				if arm.journal {
					j, err := campaign.OpenJournal(
						filepath.Join(dir, fmt.Sprintf("bench-%d.jsonl", i)), set, false)
					if err != nil {
						b.Fatal(err)
					}
					eng.Journal = j
				}
				sum, err := eng.Run(set)
				if eng.Journal != nil {
					eng.Journal.Close()
				}
				if err != nil {
					b.Fatal(err)
				}
				if sum.Scenarios != len(set) {
					b.Fatalf("ran %d scenarios, want %d", sum.Scenarios, len(set))
				}
			}
			b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// BenchmarkCampaignCacheHit quantifies what the content-addressed result
// cache buys an incremental re-run: the same ladder set executed cold (the
// store is empty, every scenario runs and records) vs warm (a prior run
// filled the store, every scenario replays). The warm arm's speedup is the
// whole point of internal/resultstore — re-running an unchanged campaign
// should cost I/O and hashing, not simulation.
func BenchmarkCampaignCacheHit(b *testing.B) {
	set := campaign.LadderPreset(16, 2021)
	for _, arm := range []struct {
		name string
		warm bool
	}{{"cold", false}, {"warm", true}} {
		b.Run(arm.name, func(b *testing.B) {
			dir := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := resultstore.Open(filepath.Join(dir, fmt.Sprintf("r%d.bin", i)))
				if err != nil {
					b.Fatal(err)
				}
				if arm.warm {
					if _, err := (campaign.Engine{Workers: 4, Cache: st}).Run(set); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				sum, err := (campaign.Engine{Workers: 4, Cache: st}).Run(set)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if sum.Scenarios != len(set) {
					b.Fatalf("ran %d scenarios, want %d", sum.Scenarios, len(set))
				}
				if stats := st.Stats(); arm.warm && stats.Hits < uint64(len(set)) {
					b.Fatalf("warm arm executed: %+v", stats)
				}
				st.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}
}

// BenchmarkPageSprayAttack measures the full "Take a Step Further" chain —
// boot, RX prime, buffer free, allocator spray, stale-IOTLB write, forged
// callback — as one campaign scenario per iteration.
func BenchmarkPageSprayAttack(b *testing.B) {
	set := []campaign.Scenario{{Kind: campaign.KindPageSpray, Seed: 2021, Trials: 1, Attempts: 1}}
	for i := 0; i < b.N; i++ {
		eng := campaign.Engine{Workers: 1}
		sum, err := eng.Run(set)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Results[0].Err != "" {
			b.Fatalf("page spray errored: %s", sum.Results[0].Err)
		}
	}
}

// BenchmarkFuzzSignature is the fuzzer's per-execution bookkeeping cost:
// result → coverage signature.
func BenchmarkFuzzSignature(b *testing.B) {
	r := &campaign.Result{
		Kind: campaign.KindPageSpray, Success: true, Escalations: 1,
		WindowPath: "(ii) deferred IOTLB invalidation",
		Metrics:    map[string]string{"spray": "head", "spray_blocks": "8"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fuzz.Signature(r) == "" {
			b.Fatal("empty signature")
		}
	}
}

// BenchmarkSummaryJSON is the cost of encoding one finished campaign's
// summary, the bytes every fabric run checks and every -out writes: a fixed
// 16-scenario ladder summary, so B/op and allocs/op are deterministic.
func BenchmarkSummaryJSON(b *testing.B) {
	sum, err := campaign.Engine{Workers: 2}.Run(campaign.LadderPreset(16, 2021))
	if err != nil {
		b.Fatal(err)
	}
	// Collect the engine's garbage first, so no GC inside the timed loop
	// empties the encode-state pool the warm-up call fills (a refilled
	// pool re-grows its buffer by doubling, adding ~256 KB to one op).
	runtime.GC()
	if _, err := sum.JSON(); err != nil { // warm encoding/json's caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sum.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotMerge is the metrics merge of one campaign aggregate:
// the per-scenario machine snapshots of a LadderPreset(16, 2021) run merged,
// in order, into a fresh snapshot. The first merge inserts every family;
// the other fifteen walk the accumulator in step and allocate nothing.
func BenchmarkSnapshotMerge(b *testing.B) {
	sum, err := campaign.Engine{Workers: 2}.Run(campaign.LadderPreset(16, 2021))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var acc metrics.Snapshot
		for _, r := range sum.Results {
			if err := acc.Merge(r.Snapshot); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCampaignWarmReplay is campaign-replay's pass in miniature:
// BenchmarkCampaignCacheHit/warm's set replayed from a warm result store
// into a fresh journal, then the summary encoded. One engine worker and a
// collection before the timed loop keep B/op deterministic (pooled encode
// and frame buffers survive the op).
func BenchmarkCampaignWarmReplay(b *testing.B) {
	set := campaign.LadderPreset(16, 2021)
	dir := b.TempDir()
	st, err := resultstore.Open(filepath.Join(dir, "results.bin"))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	pass := func(i int) {
		j, err := campaign.OpenJournal(filepath.Join(dir, fmt.Sprintf("j%d.jsonl", i)), set, false)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := campaign.Engine{Workers: 1, Cache: st, Journal: j}.Run(set)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sum.JSON(); err != nil {
			b.Fatal(err)
		}
	}
	pass(-2) // fills the store
	pass(-1) // warms the pools on the replay path
	if stats := st.Stats(); stats.Hits != uint64(len(set)) {
		b.Fatalf("warm-up replayed %d of %d scenarios", stats.Hits, len(set))
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(i)
	}
	b.StopTimer()
	if stats := st.Stats(); stats.Misses != uint64(len(set)) {
		b.Fatalf("replay executed scenarios: %+v", stats)
	}
}

// BenchmarkFabricThroughput runs one campaign across 1, 2, and 4 in-process
// dmafaultd workers through the distributed fabric coordinator. All workers
// share this host's cores, so the scenario work itself cannot scale — what
// the three points measure is the fabric's coordination overhead (shard
// submit, lease wait, result merge) staying flat as the worker count grows.
// The summary is also checked against the local engine's bytes: a fabric
// that gains throughput by dropping determinism is not a result.
func BenchmarkFabricThroughput(b *testing.B) {
	set := campaign.LadderPreset(32, 2021)
	eng := campaign.Engine{Workers: 2}
	refSum, err := eng.RunCtx(context.Background(), set)
	if err != nil {
		b.Fatal(err)
	}
	want, err := refSum.JSON()
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", n), func(b *testing.B) {
			urls := make([]string, n)
			var servers []*httptest.Server
			for i := range urls {
				srv := faultd.NewServer()
				srv.Workers = 2
				ts := httptest.NewServer(srv.Handler())
				servers = append(servers, ts)
				urls[i] = ts.URL
			}
			defer func() {
				for _, ts := range servers {
					ts.Close()
				}
			}()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := fabric.New(fabric.Config{
					Workers:   urls,
					ShardSize: 8,
					Heartbeat: 100 * time.Millisecond,
				})
				sum, err := c.Run(context.Background(), set)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				got, err := sum.JSON()
				if err != nil {
					b.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					b.Fatal("fabric summary differs from single-node run")
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
		})
	}

	// The fleet observability arm: same campaign, two workers, but with
	// FleetObs on, so every heartbeat round also scrapes both workers'
	// /v1/metrics. The scrape rides this arm's 100ms heartbeat, a harsher
	// cadence than the 1s production default. Compare against workers=2
	// above — the acceptance bar is <5% ns/op overhead, i.e. the fleet view
	// rides the idle margins of the coordination path.
	b.Run("workers=2-fleetobs", func(b *testing.B) {
		urls := make([]string, 2)
		var servers []*httptest.Server
		for i := range urls {
			srv := faultd.NewServer()
			srv.Workers = 2
			ts := httptest.NewServer(srv.Handler())
			servers = append(servers, ts)
			urls[i] = ts.URL
		}
		defer func() {
			for _, ts := range servers {
				ts.Close()
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := fabric.New(fabric.Config{
				Workers:   urls,
				ShardSize: 8,
				Heartbeat: 100 * time.Millisecond,
				FleetObs:  true,
			})
			sum, err := c.Run(context.Background(), set)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			got, err := sum.JSON()
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				b.Fatal("fabric summary with fleetobs differs from single-node run")
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(len(set)*b.N)/b.Elapsed().Seconds(), "scenarios/s")
	})
}
