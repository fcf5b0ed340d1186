// Command campaign runs declarative scenario campaigns on the parallel
// engine (internal/campaign): generate or load a scenario set, shard it
// across workers, and emit a deterministic text or JSON summary. The same
// seed always produces the same scenario set and byte-identical JSON at any
// worker count.
//
// Usage:
//
//	campaign                                  # 24-scenario mixed smoke run
//	campaign -preset mixed -n 200 -workers 8  # the §6-shaped grind
//	campaign -preset ladder -n 16 -json       # Fig. 7 matrix as a campaign
//	campaign -preset fuzz -n 64 -save set.json  # generate, save, and run
//	campaign -scenarios set.json -workers 4   # re-run a saved set
//	campaign -fault "dma-corrupt:0.01" -n 16  # inject faults into every boot
//	campaign -journal run.jsonl ...           # record completed scenarios
//	campaign -journal run.jsonl -resume ...   # skip scenarios already done
//	campaign -fuzz -fuzz-attempts 64          # coverage-guided fuzz campaign
//	campaign -fuzz -fuzz-corpus c.jsonl -resume  # continue a fuzz corpus
//	campaign -spans spans.jsonl ...           # export wall-clock spans as JSONL
//	campaign -cache results.bin ...           # replay cached results, record new ones
//	campaign -cache results.bin -require-cached ...  # assert a fully warm cache
//	campaign -cache results.bin -cache-compact  # drop superseded/stale records
//	campaign -watch http://localhost:8077/v1/campaigns/1  # tail a dmafaultd job
//	campaign -list                            # available presets and kinds
//
// Coordinator mode distributes one campaign across dmafaultd worker nodes
// (internal/fabric) and merges the results byte-identically with a local
// run — dead workers are re-leased, and -journal records results and lease
// events in the same campaign journal a local run writes, so either kind of
// run resumes the other's:
//
//	campaign -coordinator -worker-urls http://w1:8077,http://w2:8077 \
//	    -preset mixed -n 200 -out summary.json
//	campaign -coordinator -coordinator-addr :9100 ...   # + join, /v1/fleet, SSE (fabrictop)
//	campaign -coordinator -coordinator-addr :9100 -fleetobs ...  # + worker metrics in /v1/fleet
//	campaign -coordinator -journal run.jsonl ...   # journal the run
//	campaign -coordinator -journal run.jsonl -resume ...  # pick it back up
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/cliutil"
	"dmafault/internal/fabric"
	"dmafault/internal/faultd"
	"dmafault/internal/faultinject"
	"dmafault/internal/obs"
	"dmafault/internal/par"
	"dmafault/internal/resultstore"
)

func main() {
	preset := flag.String("preset", "mixed", "scenario generator: mixed|fuzz|bootstudy|ringflood|ladder")
	n := flag.Int("n", 24, "scenario count to generate")
	scenarioFile := flag.String("scenarios", "", "load scenario set from JSON instead of generating")
	save := flag.String("save", "", "write the scenario set to this JSON file before running")
	list := flag.Bool("list", false, "list presets and scenario kinds, then exit")
	faultSpec := flag.String("fault", "", "fault-injection spec applied to scenarios without their own (e.g. \"dma-corrupt:0.01,alloc-fail@3\")")
	journalPath := flag.String("journal", "", "record completed scenarios (and, with -coordinator, lease events) to this journal")
	resume := flag.Bool("resume", false, "with -journal: skip scenarios the journal already records and append new ones")
	spansOut := flag.String("spans", "", "write the run's wall-clock spans (campaign/scenario/attempt) to this JSONL file")
	fuzzMode := flag.Bool("fuzz", false, "run a coverage-guided fuzz campaign instead of a fixed scenario set")
	fuzzAttempts := flag.Int("fuzz-attempts", 0, "fuzz execution budget (0: default, unless -fuzz-time is set)")
	fuzzTime := flag.Duration("fuzz-time", 0, "bound the fuzz run by wall clock instead of attempts")
	fuzzBatch := flag.Int("fuzz-batch", 0, "scenarios per fuzz round (0: default)")
	fuzzCorpus := flag.String("fuzz-corpus", "", "persist the fuzz corpus to this file (-resume continues it)")
	fuzzMinimize := flag.Int("fuzz-minimize", 0, "per-entry minimization budget (0: default; negative: skip minimization)")
	watch := flag.String("watch", "", "tail a running dmafaultd job over SSE instead of running locally (job URL, e.g. http://localhost:8077/v1/campaigns/1)")
	coordinator := flag.Bool("coordinator", false, "run as a fabric coordinator: shard the campaign across dmafaultd workers and merge the results")
	var fabricCfg fabric.Config
	var coordOpts coordFlags
	flag.StringVar(&coordOpts.WorkerURLs, "worker-urls", "", "comma-separated dmafaultd worker base URLs for -coordinator (more may join at runtime via -coordinator-addr)")
	flag.StringVar(&coordOpts.Addr, "coordinator-addr", "", "serve the fabric supervision surface (join, workers, SSE events, metrics) on this address")
	flag.DurationVar(&fabricCfg.LeaseTTL, "lease-ttl", 0, "shard lease time budget; an expired lease re-leases the shard to another worker (0: default)")
	flag.IntVar(&fabricCfg.MaxLeaseAttempts, "lease-attempts", 0, "lease grants per shard before giving up on the fabric (evidence of a killed job bisects; anything else runs the shard locally) (0: default)")
	flag.IntVar(&fabricCfg.ShardSize, "shard-size", 0, "scenarios per shard lease (0: default)")
	flag.DurationVar(&fabricCfg.Heartbeat, "fabric-heartbeat", 0, "worker readiness probe cadence, which also paces the \"fleet\" SSE beat and the -fleetobs scrape (0: default)")
	flag.StringVar(&coordOpts.MetricsOut, "fabric-metrics", "", "write the final fabric_* metric families (Prometheus text) to this file")
	flag.BoolVar(&fabricCfg.NeedCache, "need-worker-cache", false, "refuse to lease shards to workers running without a shared result cache")
	flag.StringVar(&coordOpts.Netchaos, "netchaos", "", "with -coordinator: deterministic network-chaos plan applied to every worker-bound request (e.g. \"bitflip:0.3,truncate:0.1,partition:0.01\")")
	flag.Int64Var(&coordOpts.NetchaosSeed, "netchaos-seed", 0, "decision seed for the -netchaos plan")
	flag.BoolVar(&fabricCfg.FleetObs, "fleetobs", false, "with -coordinator: also scrape every worker's /v1/metrics in each heartbeat round, filling the metrics, ready and stale fields of GET /v1/fleet (see fabrictop)")
	cachePath := flag.String("cache", "", "content-addressed result cache file: scenarios already recorded replay instead of executing; new results are appended")
	cacheCompact := flag.Bool("cache-compact", false, "with -cache: rewrite the cache log dropping superseded and stale-engine records, print stats, and exit")
	requireCached := flag.Bool("require-cached", false, "with -cache: exit nonzero unless every scenario was served from the cache (proves a warm cache executes nothing)")
	cf := cliutil.New("campaign").WithSeed().WithWorkers().WithJSON().WithOut().WithQuiet().WithLog()
	cf.Parse()
	seed, workers, jsonOut := cf.Seed, cf.Workers, cf.JSON
	log := cf.Logger(nil)

	if *watch != "" {
		status, err := watchJob(os.Stdout, *watch)
		if err != nil {
			cf.Fatal(err)
		}
		if status != string(faultd.StatusDone) {
			cf.Fatal(fmt.Errorf("job finished with status %q", status))
		}
		return
	}

	if *cacheCompact {
		if *cachePath == "" {
			cf.Fatal(fmt.Errorf("-cache-compact requires -cache"))
		}
		cs, err := resultstore.Compact(*cachePath)
		if err != nil {
			cf.Fatal(err)
		}
		fmt.Printf("cache compacted: %d -> %d records (%d stale, %d superseded dropped), %d -> %d bytes\n",
			cs.RecordsBefore, cs.RecordsAfter, cs.DroppedStale, cs.DroppedSuperseded,
			cs.BytesBefore, cs.BytesAfter)
		return
	}
	var store *resultstore.Store
	if *cachePath != "" {
		var err error
		if store, err = resultstore.Open(*cachePath); err != nil {
			cf.Fatal(err)
		}
		defer store.Close()
	} else if *requireCached {
		cf.Fatal(fmt.Errorf("-require-cached requires -cache"))
	}

	if *list {
		names := make([]string, 0, len(campaign.Presets))
		for name := range campaign.Presets {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Println("presets:", names)
		fmt.Println("kinds:  ", campaign.AllKinds())
		return
	}

	if *fuzzMode {
		if err := runFuzz(cf, log, fuzzOptions{
			Attempts: *fuzzAttempts, WallTime: *fuzzTime, Batch: *fuzzBatch,
			Corpus: *fuzzCorpus, Resume: *resume, Minimize: *fuzzMinimize,
			Cache: store, RequireCached: *requireCached,
		}); err != nil {
			cf.Fatal(err)
		}
		return
	}

	var scenarios []campaign.Scenario
	if *scenarioFile != "" {
		var err error
		if scenarios, err = campaign.LoadScenarioFile(*scenarioFile); err != nil {
			cf.Fatal(err)
		}
	} else {
		gen, ok := campaign.Presets[*preset]
		if !ok {
			cf.Fatal(fmt.Errorf("unknown preset %q (try -list)", *preset))
		}
		scenarios = gen(*n, *seed)
	}
	if *faultSpec != "" {
		if _, err := faultinject.ParseSpec(*faultSpec); err != nil {
			cf.Fatal(err)
		}
		for i := range scenarios {
			if scenarios[i].FaultSpec == "" {
				scenarios[i].FaultSpec = *faultSpec
			}
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			cf.Fatal(err)
		}
		if err := campaign.SaveScenarios(f, scenarios); err != nil {
			cf.Fatal(err)
		}
		if err := f.Close(); err != nil {
			cf.Fatal(err)
		}
	}
	if *resume && *journalPath == "" && *fuzzCorpus == "" {
		cf.Fatal(fmt.Errorf("-resume requires -journal (or -fuzz -fuzz-corpus)"))
	}
	// An empty scenario set (e.g. -n 0, or an exhausted generator on a
	// resumed run) is a clean no-op: report it and exit 0 without touching
	// the journal, so a stray header line never clobbers resume state.
	if emptyRun(os.Stdout, scenarios, *jsonOut) {
		return
	}

	if *coordinator {
		fabricCfg.JournalPath = *journalPath
		fabricCfg.Resume = *resume
		fabricCfg.LocalWorkers = *workers
		fabricCfg.Log = log
		if store != nil {
			fabricCfg.Store = store
		}
		if err := runFabric(cf, scenarios, fabricCfg, coordOpts); err != nil {
			cf.Fatal(err)
		}
		return
	}

	eng := campaign.Engine{Workers: *workers}
	var cacheHits atomic.Int64
	if store != nil {
		eng.Cache = store
		eng.OnCacheHit = func(int) { cacheHits.Add(1) }
	}
	var spanCol *obs.Collector
	if *spansOut != "" {
		spanCol = &obs.Collector{}
		eng.Obs = obs.NewTracer(spanCol.Sink())
	}
	if *journalPath != "" {
		j, err := campaign.OpenJournal(*journalPath, scenarios, *resume)
		if err != nil {
			cf.Fatal(err)
		}
		defer j.Close()
		eng.Journal = j
		eng.Completed = j.State().Restored
		if n := len(eng.Completed); n > 0 {
			log.Info("resumed from journal",
				"restored", n, "total", len(scenarios), "journal", *journalPath)
		}
	}
	var done atomic.Int64
	done.Store(int64(len(eng.Completed)))
	if log.Enabled(context.Background(), slog.LevelInfo) {
		total := len(scenarios)
		eng.OnResult = func(i int, r *campaign.Result) {
			d := done.Add(1)
			status := "ok"
			if r.Err != "" {
				status = "ERR"
			} else if !r.Success {
				status = "miss"
			}
			if r.Outcome != "" {
				status = r.Outcome
			}
			log.Info("scenario done", "done", d, "total", total, "id", r.ID, "status", status)
		}
	}
	start := time.Now()
	summary, err := eng.Run(scenarios)
	if err != nil {
		cf.Fatal(err)
	}
	elapsed := time.Since(start)

	if store != nil {
		st := store.Stats()
		log.Info("result cache", "path", st.Path, "hits", cacheHits.Load(),
			"misses", st.Misses, "records", st.Records)
		if *requireCached && st.Misses > 0 {
			cf.Fatal(fmt.Errorf("require-cached: %d scenarios missed the cache and executed", st.Misses))
		}
	}

	if spanCol != nil {
		f, err := os.Create(*spansOut)
		if err != nil {
			cf.Fatal(err)
		}
		if err := spanCol.WriteJSONL(f); err != nil {
			cf.Fatal(err)
		}
		if err := f.Close(); err != nil {
			cf.Fatal(err)
		}
		log.Info("spans written", "path", *spansOut, "spans", len(spanCol.Spans()))
	}

	if err := emit(cf, summary.JSON, summary.Render); err != nil {
		cf.Fatal(err)
	}
	w := *workers
	if w <= 0 {
		w = par.DefaultWorkers()
	}
	log.Info("campaign complete",
		"scenarios", len(scenarios),
		"elapsed", elapsed.Round(time.Millisecond).String(),
		"rate", fmt.Sprintf("%.1f/s", float64(len(scenarios))/elapsed.Seconds()),
		"workers", w)
}

// emit writes a finished run the one way every mode does: its JSON to -out
// and, with -json, to stdout; without -json, the text rendering to stdout.
func emit(cf *cliutil.Flags, toJSON func() ([]byte, error), render func() string) error {
	if *cf.Out != "" || *cf.JSON {
		data, err := toJSON()
		if err != nil {
			return err
		}
		if err := cf.WriteOut(data); err != nil {
			return err
		}
		if *cf.JSON {
			os.Stdout.Write(append(data, '\n'))
		}
	}
	if !*cf.JSON {
		fmt.Print(render())
	}
	return nil
}
