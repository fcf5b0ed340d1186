package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/cliutil"
	"dmafault/internal/fabric"
	"dmafault/internal/netchaos"
	"dmafault/internal/obs"
)

// Coordinator mode: -coordinator turns this command into the fabric's
// control plane. The scenario set is partitioned into digest-addressed
// shards and leased to dmafaultd workers (-worker-urls and/or runtime joins
// via -coordinator-addr); dead workers are re-leased, zero workers degrade
// to local execution, and the merged summary is byte-identical to a plain
// single-node run of the same set.

// coordFlags carries the -coordinator flags that are not fabric.Config
// fields; the rest of the flag group writes into the Config directly.
type coordFlags struct {
	WorkerURLs   string // comma-separated, becomes Config.Workers
	Addr         string // HTTP surface; arms Config.Hub
	MetricsOut   string
	Netchaos     string // fault plan for Config.Transport
	NetchaosSeed int64
}

// runFabric drives one distributed campaign and emits the summary through
// the same output path as a local run.
func runFabric(cf *cliutil.Flags, scenarios []campaign.Scenario, cfg fabric.Config, ff coordFlags) error {
	log := cfg.Log
	for _, u := range strings.Split(ff.WorkerURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			cfg.Workers = append(cfg.Workers, u)
		}
	}
	var chaos *netchaos.Transport
	if ff.Netchaos != "" {
		plan, err := netchaos.ParseSpec(ff.Netchaos)
		if err != nil {
			return err
		}
		plan.Seed = ff.NetchaosSeed
		chaos = netchaos.NewTransport(plan, nil)
		cfg.Transport = chaos
		log.Warn("netchaos armed: every worker-bound request rides the fault plan",
			"plan", ff.Netchaos, "seed", ff.NetchaosSeed)
	}
	if ff.Addr != "" {
		cfg.Hub = obs.NewHub()
	}
	coord := fabric.New(cfg)

	// SIGTERM/SIGINT cancel the run; in-flight leases are abandoned (their
	// workers get a best-effort cancel) and the journal keeps everything
	// already delivered, so -resume picks the campaign back up.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	if ff.Addr != "" {
		ln, err := net.Listen("tcp", ff.Addr)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: coord.Handler()}
		go func() {
			if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("coordinator server", "err", err)
			}
		}()
		defer hs.Close()
		// soaksmoke parses this record like dmafaultd's — keep msg/addr stable.
		log.Info("coordinator listening", "addr", ln.Addr().String(),
			"workers", len(cfg.Workers), "shard_size", cfg.ShardSize)
	}

	start := time.Now()
	summary, err := coord.Run(ctx, scenarios)
	status := "done"
	if err != nil {
		status = "failed"
	}
	coord.PublishStatus(status)
	if ff.MetricsOut != "" {
		// Written on failure too: a cancelled coordinator's re-lease
		// counters are exactly what the operator wants to see.
		if werr := os.WriteFile(ff.MetricsOut, coord.Metrics().Text(), 0o644); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := emit(cf, summary.JSON, summary.Render); err != nil {
		return err
	}
	log.Info("fabric campaign complete",
		"scenarios", len(scenarios),
		"elapsed", elapsed.Round(time.Millisecond).String(),
		"rate", fmt.Sprintf("%.1f/s", float64(len(scenarios))/elapsed.Seconds()),
		"workers", len(cfg.Workers))
	if chaos != nil {
		log.Info("netchaos injections", "counts", chaos.CountsText())
	}
	return nil
}
