package main

import (
	"context"
	"fmt"
	"log/slog"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// Fleet soak (`make fleetsmoke`, soaksmoke -fleet): the fleet view
// end-to-end. Three real workers, one coordinator with -fleetobs (every
// heartbeat round also scrapes each worker's metrics), and a mild netchaos
// plan on every worker-bound request — scrapes included, so the fleet view
// eats torn metrics bodies and 503d readiness probes while the campaign
// runs. Mid-run, GET /v1/fleet must show all three
// workers with nonzero per-phase latency attribution, and the fabrictop
// -once rendering of that snapshot must list them; after the run, the
// merged summary must be byte-identical to a clean single-node run —
// observation, even degraded observation, never touches the bytes.

// fleetPlanSpec keeps the weather mild: enough 503s, drops, and torn bodies
// to exercise the scrape's failure handling without making the
// campaign itself crawl through re-leases.
const (
	fleetPlanSpec = "http-503:0.05,conn-drop:0.03,truncate:0.03"
	fleetPlanSeed = "11"
)

func runFleetSoak(log *slog.Logger, keep bool) error {
	ctx := context.Background()
	dir, cleanup, err := scratchDir(log, "fleetsmoke-", keep)
	if err != nil {
		return err
	}
	defer cleanup()
	topBin, err := build(dir, "fabrictop")
	if err != nil {
		return err
	}

	// Stall scenarios keep every shard ~1s, so the campaign stays up long
	// enough for several scrape rounds and a mid-run /v1/fleet poll. 28 at
	// -shard-size 4 is 7 shards over 3 workers: everyone executes.
	rig, err := newFabricRig(ctx, log, dir, 28)
	if err != nil {
		return err
	}
	defer rig.close()
	urls := rig.urls()

	fabricPath := filepath.Join(dir, "fabric.json")
	coord, err := startProc(log, dir, "coordinator", rig.campaignBin,
		"-coordinator", "-scenarios", rig.setPath,
		"-worker-urls", strings.Join(urls, ","),
		"-coordinator-addr", "127.0.0.1:0",
		"-shard-size", "4", "-lease-ttl", "20s", "-lease-attempts", "6",
		"-fabric-heartbeat", "150ms",
		"-netchaos", fleetPlanSpec, "-netchaos-seed", fleetPlanSeed,
		"-fleetobs",
		"-out", fabricPath,
	)
	if err != nil {
		return err
	}
	defer coord.kill()

	// Poll /v1/fleet while the campaign runs until every worker shows
	// attributed per-phase time, then render the same state through the
	// fabrictop binary. The poll races campaign completion, so failures here
	// are retried until the coordinator exits.
	fleetErr := make(chan error, 1)
	go func() { fleetErr <- watchFleet(ctx, log, coord.url, topBin, urls) }()

	exitErr := make(chan error, 1)
	go func() { exitErr <- coord.waitExit(3 * time.Minute) }()

	select {
	case err := <-fleetErr:
		if err != nil {
			return err
		}
		if err := <-exitErr; err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
	case err := <-exitErr:
		if err != nil {
			return fmt.Errorf("coordinator: %w", err)
		}
		// The campaign finished before the fleet assertions did: the
		// coordinator's surface is gone, so whatever the watcher saw last is
		// the verdict.
		if err := <-fleetErr; err != nil {
			return fmt.Errorf("campaign finished before the fleet plane converged: %w", err)
		}
	}

	fab, err := rig.matchSingle(fabricPath, "fleetobs fabric")
	if err != nil {
		return err
	}
	log.Info("fleet soak finished", "workers", len(urls), "summary_bytes", len(fab))
	return nil
}

// watchFleet polls the coordinator's /v1/fleet until all three workers carry
// nonzero per-phase latency totals, then checks the fabrictop -once
// rendering. Returns the last observation error if the surface disappears
// (coordinator exit) before converging.
func watchFleet(ctx context.Context, log *slog.Logger, coordURL, topBin string, workers []string) error {
	cl := faultdclient.New(coordURL)
	cl.Retries = -1 // the poll loop is its own retry
	deadline := time.Now().Add(3 * time.Minute)
	lastErr := fmt.Errorf("never observed a fleet snapshot")
	for time.Now().Before(deadline) {
		fs, err := cl.Fleet(ctx)
		if err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		if err := fleetConverged(fs, workers); err != nil {
			lastErr = err
			time.Sleep(100 * time.Millisecond)
			continue
		}
		log.Info("fleet converged: all workers attributed", "workers", len(fs.Workers))
		out, err := exec.Command(topBin, "-coordinator", coordURL, "-once").CombinedOutput()
		if err != nil {
			return fmt.Errorf("fabrictop -once: %v\n%s", err, out)
		}
		for _, u := range workers {
			host := strings.TrimPrefix(u, "http://")
			if !strings.Contains(string(out), host) {
				return fmt.Errorf("fabrictop -once output missing worker %s:\n%s", host, out)
			}
		}
		return nil
	}
	return lastErr
}

// fleetConverged checks one snapshot for full three-worker attribution.
func fleetConverged(fs *api.FleetSnapshot, workers []string) error {
	if len(fs.Workers) != len(workers) {
		return fmt.Errorf("fleet shows %d workers, want %d", len(fs.Workers), len(workers))
	}
	for _, w := range fs.Workers {
		if w.Delivered == 0 {
			return fmt.Errorf("worker %s has delivered nothing yet", w.URL)
		}
		pt := w.PhaseTotals
		if pt.QueueWait <= 0 || pt.Execute <= 0 || pt.Publish <= 0 {
			return fmt.Errorf("worker %s phase totals not all nonzero: %+v", w.URL, pt)
		}
	}
	return nil
}
