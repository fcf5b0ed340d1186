package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// Fabric soak (`make fabricsmoke`, soaksmoke -fabric): the distributed
// campaign's end-to-end kill test. One coordinator, three workers; one
// worker is kill -9'd while it holds shard leases, then the coordinator
// itself is kill -9'd after the re-lease fires, restarted with -resume, and
// run to completion. The merged summary must be byte-identical to a plain
// single-node `campaign` run of the same scenario set, and the final
// fabric_releases_total must prove the dead worker's shards were actually
// re-leased — the whole robustness story, on every `make check`.

var releasesRE = regexp.MustCompile(`(?m)^fabric_releases_total ([0-9.e+]+)$`)

func runFabricSoak(log *slog.Logger, keep bool) error {
	ctx := context.Background()
	dir, cleanup, err := scratchDir(log, "fabricsmoke-", keep)
	if err != nil {
		return err
	}
	defer cleanup()

	// Three workers over 32 stall scenarios. w1 and w2 are static
	// coordinator config, w3 registers at runtime through /v1/fabric/join.
	rig, err := newFabricRig(ctx, log, dir, 32)
	if err != nil {
		return err
	}
	defer rig.close()
	w1, w2, w3 := rig.workers[0], rig.workers[1], rig.workers[2]

	fabricPath := filepath.Join(dir, "fabric.json")
	journalPath := filepath.Join(dir, "coordinator.jsonl")
	metricsPath := filepath.Join(dir, "fabric-metrics.txt")
	coordArgs := func(workers ...string) []string {
		return []string{
			"-coordinator", "-scenarios", rig.setPath,
			"-worker-urls", strings.Join(workers, ","),
			"-coordinator-addr", "127.0.0.1:0",
			"-shard-size", "4", "-lease-ttl", "20s", "-fabric-heartbeat", "200ms",
			"-fabric-journal", journalPath, "-fabric-metrics", metricsPath,
			"-out", fabricPath,
		}
	}
	coord, err := startProc(log, dir, "coordinator", rig.campaignBin, coordArgs(w1.url, w2.url)...)
	if err != nil {
		return err
	}
	defer coord.kill()

	// Runtime join: w3 announces itself the way dmafaultd -join would.
	cc := coord.c
	if _, err := cc.JoinFabric(ctx, api.JoinRequest{URL: w3.url}); err != nil {
		return fmt.Errorf("join w3: %w", err)
	}
	if wl, err := cc.FabricWorkers(ctx); err != nil || len(wl.Workers) != 3 {
		return fmt.Errorf("worker registry after join: %+v, %v", wl, err)
	}

	// Kill w1 the moment it holds shard leases — its in-flight shards must
	// be re-leased to the survivors.
	if err := waitForLease(ctx, cc, w1.url, 30*time.Second); err != nil {
		return err
	}
	if err := w1.kill(); err != nil {
		return fmt.Errorf("kill -9 w1: %w", err)
	}
	log.Info("worker killed", "worker", w1.url)

	// The re-lease is journaled before the replacement lease is granted;
	// once it is on disk, kill the coordinator too.
	if err := waitForJournal(journalPath, `"released":`, 60*time.Second); err != nil {
		return err
	}
	if err := coord.kill(); err != nil {
		return fmt.Errorf("kill -9 coordinator: %w", err)
	}
	log.Info("coordinator killed", "journal", journalPath)

	// Restart against the same state log; the resumed coordinator must
	// finish on the surviving workers with the dead one's results intact.
	args := append(coordArgs(w2.url, w3.url), "-resume")
	coord2, err := startProc(log, dir, "coordinator", rig.campaignBin, args...)
	if err != nil {
		return fmt.Errorf("coordinator restart: %w", err)
	}
	defer coord2.kill()
	if err := coord2.waitExit(3 * time.Minute); err != nil {
		return fmt.Errorf("resumed coordinator: %w", err)
	}

	fab, err := rig.matchSingle(fabricPath, "fabric")
	if err != nil {
		return err
	}

	// fabric_releases_total survives the coordinator kill via journal
	// replay; > 0 proves the dead-worker path actually fired.
	mt, err := os.ReadFile(metricsPath)
	if err != nil {
		return fmt.Errorf("fabric metrics: %w", err)
	}
	m := releasesRE.FindSubmatch(mt)
	if m == nil {
		return fmt.Errorf("fabric_releases_total missing from %s", metricsPath)
	}
	releases, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil || releases <= 0 {
		return fmt.Errorf("fabric_releases_total = %s, want > 0", m[1])
	}

	// Survivors drain cleanly.
	for _, w := range []*proc{w2, w3} {
		if err := w.term(15 * time.Second); err != nil {
			return fmt.Errorf("worker shutdown: %w", err)
		}
	}
	log.Info("fabric soak finished", "releases", releases,
		"summary_bytes", len(fab))
	return nil
}

// waitForLease polls the coordinator's worker registry until the worker
// holds at least one shard lease.
func waitForLease(ctx context.Context, cc *faultdclient.Client, worker string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		wl, err := cc.FabricWorkers(ctx)
		if err != nil {
			return err
		}
		for _, w := range wl.Workers {
			if w.URL == worker && w.Leases > 0 {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("worker %s never held a lease", worker)
}

// waitForJournal polls the coordinator state log for a marker substring.
func waitForJournal(path, marker string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && strings.Contains(string(data), marker) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("state log %s never recorded %s", path, marker)
}
