package main

import (
	"fmt"

	"dmafault/internal/campaign"
	"dmafault/internal/obs"
)

// simulatedFamilies maps the per-layer simulated counters to the metric
// families of a campaign summary.
var simulatedFamilies = []struct{ name, family string }{
	{"iommu.maps", "iommu_maps_total"},
	{"iommu.unmaps", "iommu_unmaps_total"},
	{"iommu.translations", "iommu_translations_total"},
	{"iommu.faults", "iommu_faults_total"},
	{"iommu.strict_invalidations", "iommu_strict_invalidations_total"},
	{"iommu.global_flushes", "iommu_global_flushes_total"},
	{"iommu.stale_iotlb_hits", "iommu_stale_iotlb_hits_total"},
	{"iommu.invalidation_virtual_ns", "iommu_invalidation_nanos_total"},
	{"mem.page_allocs", "mem_page_allocs_total"},
	{"mem.page_hot_hits", "mem_page_hot_hits_total"},
	{"mem.slab_allocs", "mem_slab_allocs_total"},
	{"mem.frag_allocs", "mem_frag_allocs_total"},
	{"netstack.rx_packets", "netstack_rx_packets_total"},
	{"netstack.tx_packets", "netstack_tx_packets_total"},
	{"netstack.gro_merged", "netstack_gro_merged_total"},
	{"trace.events", "trace_events_by_kind_total"},
	{"trace.dropped", "trace_events_dropped_total"},
	{"dkasan.events", "dkasan_events_total"},
	{"campaign.successes", "campaign_successes_total"},
	{"campaign.escalations", "campaign_escalations_total"},
}

// simulatedCounts returns the summary's simulated counter totals. They are
// deterministic for a scenario set: a change that only speeds up the
// simulator leaves every one of them unchanged.
func simulatedCounts(sum *campaign.Summary) map[string]float64 {
	out := map[string]float64{"sim.virtual_ns": float64(sum.VirtualNanos)}
	for _, f := range simulatedFamilies {
		out[f.name] = sum.Metrics.Total(f.family)
	}
	return out
}

// spanTotals sums the engine's attempt and scenario spans.
type spanTotals struct {
	attemptMS, scenarioMS float64
	attempts, scenarios   int
}

func engineSpans(spans []obs.Span) spanTotals {
	var t spanTotals
	for _, s := range spans {
		switch s.Name {
		case "attempt":
			t.attemptMS += float64(s.DurationNanos) / 1e6
			t.attempts++
		case "scenario":
			t.scenarioMS += float64(s.DurationNanos) / 1e6
			t.scenarios++
		}
	}
	return t
}

// perLayer computes every per-layer metric of the traced run. A layer the
// workload reached is reported from the workload's own traced work; a layer
// it did not reach is reported from the coverage probe.
func (b *bench) perLayer(w workload, plain *phase, tr *tracing) map[string]metricValue {
	workSpans, probeSpans := tr.spans()
	scopes := []struct {
		st    *layerStats
		spans spanTotals
	}{{tr.main, engineSpans(workSpans)}, {tr.probe, engineSpans(probeSpans)}}
	pick := func(f func(st *layerStats, sp spanTotals) (float64, bool)) float64 {
		for _, s := range scopes {
			if v, ok := f(s.st, s.spans); ok {
				return v
			}
		}
		return 0
	}
	mean := func(name string) float64 {
		return pick(func(st *layerStats, _ spanTotals) (float64, bool) { return st.mean(name) })
	}
	ratio := func(num, den string, scale float64) float64 {
		return pick(func(st *layerStats, _ spanTotals) (float64, bool) {
			v, ok := st.ratio(num, den)
			return v * scale, ok
		})
	}
	total := func(name string) float64 {
		return pick(func(st *layerStats, _ spanTotals) (float64, bool) {
			v, n := st.sum(name)
			return v, n > 0
		})
	}
	scen, nScen := tr.main.sum("replay.scenario_ms")
	covered, _ := tr.main.sum("replay.covered_ms")
	vals := map[string]float64{
		"go.gc_cpu_fraction":        plain.rt.gcCPU / plain.rt.allCPU,
		"go.gc_cycles_per_scenario": float64(plain.rt.gcCycles) / float64(plain.scenarios),
		"go.heap_peak_mb":           float64(plain.rt.heapPeak) / 1e6,

		"campaign.attempt_ms": pick(func(_ *layerStats, sp spanTotals) (float64, bool) {
			return sp.attemptMS / float64(sp.attempts), sp.attempts > 0
		}),
		"campaign.scenario_overhead_ms": pick(func(_ *layerStats, sp spanTotals) (float64, bool) {
			return (sp.scenarioMS - sp.attemptMS) / float64(sp.scenarios), sp.scenarios > 0
		}),
		"par.worker_busy_fraction": pick(func(st *layerStats, sp spanTotals) (float64, bool) {
			wall, n := st.sum("par.wall_s")
			return sp.attemptMS / 1e3 / (workers * wall), n > 0
		}),
		"campaign.unattributed_ms":            (scen - covered) / float64(nScen),
		"campaign.layer_coverage":             covered / scen,
		"campaign.journal_bytes_per_scenario": ratio("campaign.journal_bytes", "campaign.journal_scenarios", 1),
		"resultstore.hit_ratio":               mean("resultstore.hits"),
		"resultstore.bytes_per_record":        ratio("resultstore.bytes", "resultstore.records", 1),

		"fabric.submit_ms":                   ratio("fabric.submit_nanos", "fabric.submits", 1e-6),
		"fabric.polls_per_shard":             ratio("fabric.polls", "fabric.shards", 1),
		"fabric.transfer_bytes_per_scenario": ratio("fabric.bytes", "fabric.scenarios", 1),
		"fabric.phase_queue_wait_ms":         ratio("fabric.phase_queue_wait_s", "fabric.phase_queue_wait_n", 1e3),
		"fabric.phase_execute_ms":            ratio("fabric.phase_execute_s", "fabric.phase_execute_n", 1e3),
		"fabric.phase_publish_ms":            ratio("fabric.phase_publish_s", "fabric.phase_publish_n", 1e3),
		"fabric.releases":                    total("fabric.releases"),
		"fabric.local_fallback_shards":       total("fabric.local_fallback_shards"),
		"fabric.integrity_rejected":          total("fabric.integrity_rejected"),
	}
	ref := w.reference()
	for name, v := range simulatedCounts(ref.summary) {
		vals[name] = v / float64(ref.summary.Scenarios)
	}
	out := map[string]metricValue{}
	fmt.Println("per-layer metrics:")
	for _, d := range b.man.PerLayer {
		v, ok := vals[d.Name]
		if !ok {
			// Layer-call means (<call>_ms, <call>_alloc_mb) and the engine
			// steps timed outside the pass (digest, aggregate, summary JSON,
			// store get/put) are recorded under their metric name.
			v = mean(d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-36s %16.4f %s\n", d.Name, v, d.Unit)
	}
	return out
}
