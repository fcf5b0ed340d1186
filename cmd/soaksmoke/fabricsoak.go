package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// Fabric phase: the distributed campaign's end-to-end kill test, with
// every coordinator defense armed at once. Three workers (w3 joins at
// runtime), one coordinator journaling its state, scraping the fleet, and
// riding a mild netchaos plan on every worker-bound request. w1 is kill -9'd
// while it holds shard leases; fabrictop -once must still list all three
// workers; the coordinator itself is kill -9'd once a re-lease is on disk,
// restarted with -resume, and run to completion. The merged summary must be
// byte-identical to the single-node reference and fabric_releases_total,
// carried across the coordinator kill by journal replay, must be positive.

// The wire weather: enough 503s, drops and torn bodies that the client
// retries, the integrity layer and the fleet scrape's failure handling all
// run, without making the campaign crawl through re-leases.
const (
	netchaosPlan = "http-503:0.05,conn-drop:0.03,truncate:0.03"
	netchaosSeed = "11"
)

var releasesRE = regexp.MustCompile(`(?m)^fabric_releases_total ([0-9.e+]+)$`)

func fabricPhase(log *slog.Logger, r *rig) error {
	ctx := context.Background()
	// Workers run -workers 1 so shard jobs stay slow.
	var workers []*proc
	defer func() {
		for _, w := range workers {
			w.kill()
		}
	}()
	for i := 0; i < 3; i++ {
		w, err := startProc(log, r.dir, "worker", r.daemonBin,
			"-addr", "127.0.0.1:0", "-workers", "1",
			"-max-concurrent-campaigns", "2", "-job-stall-timeout", "1m")
		if err != nil {
			return err
		}
		workers = append(workers, w)
	}
	w1, w2, w3 := workers[0], workers[1], workers[2]
	// Fail fast on dead workers before committing the soak budget: a
	// crashed worker should be a one-line error, not a 3-minute timeout
	// with an opaque summary mismatch at the end.
	if err := preflightWorkers(ctx, []string{w1.url, w2.url, w3.url}, 10*time.Second); err != nil {
		return err
	}

	fabricPath := filepath.Join(r.dir, "fabric.json")
	journalPath := filepath.Join(r.dir, "coordinator.jsonl")
	metricsPath := filepath.Join(r.dir, "fabric-metrics.txt")
	coordArgs := func(workers ...string) []string {
		return []string{
			"-coordinator", "-scenarios", r.setPath,
			"-worker-urls", strings.Join(workers, ","),
			"-coordinator-addr", "127.0.0.1:0",
			// -lease-attempts 6 keeps shards on the fabric through
			// chaos-induced failures instead of falling back to local runs.
			"-shard-size", "4", "-lease-ttl", "20s", "-lease-attempts", "6",
			"-fabric-heartbeat", "200ms",
			"-netchaos", netchaosPlan, "-netchaos-seed", netchaosSeed,
			"-fleetobs",
			"-journal", journalPath, "-fabric-metrics", metricsPath,
			"-out", fabricPath,
		}
	}
	coord, err := startProc(log, r.dir, "coordinator", r.campaignBin, coordArgs(w1.url, w2.url)...)
	if err != nil {
		return err
	}
	defer coord.kill()

	// Runtime join: w3 announces itself the way dmafaultd -join would.
	cc := coord.c
	if _, err := cc.JoinFabric(ctx, api.JoinRequest{URL: w3.url}); err != nil {
		return fmt.Errorf("join w3: %w", err)
	}
	if fs, err := cc.Fleet(ctx); err != nil || len(fs.Workers) != 3 {
		return fmt.Errorf("fleet rows after join: %+v, %v", fs, err)
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

	// The fleet document keeps a row per registered worker, the dead one too.
	out, err := exec.Command(r.topBin, "-coordinator", coord.url, "-once").CombinedOutput()
	if err != nil {
		return fmt.Errorf("fabrictop -once: %v\n%s", err, out)
	}
	for _, w := range workers {
		if host := strings.TrimPrefix(w.url, "http://"); !strings.Contains(string(out), host) {
			return fmt.Errorf("fabrictop -once output missing worker %s:\n%s", host, out)
		}
	}

	// The re-lease is journaled before the replacement lease is granted;
	// once it is on disk, kill the coordinator too.
	if err := waitForJournal(journalPath, `"event":"released"`, 60*time.Second); err != nil {
		return err
	}
	if err := coord.kill(); err != nil {
		return fmt.Errorf("kill -9 coordinator: %w", err)
	}
	log.Info("coordinator killed", "journal", journalPath)

	// Restart against the same journal; the resumed coordinator must
	// finish on the surviving workers with the dead one's results intact.
	coord2, err := startProc(log, r.dir, "coordinator", r.campaignBin,
		append(coordArgs(w2.url, w3.url), "-resume")...)
	if err != nil {
		return fmt.Errorf("coordinator restart: %w", err)
	}
	defer coord2.kill()
	if err := coord2.waitExit(3 * time.Minute); err != nil {
		return fmt.Errorf("resumed coordinator: %w", err)
	}

	fab, err := r.matchSingle(fabricPath)
	if err != nil {
		return err
	}
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
	log.Info("fabric phase finished", "releases", releases, "summary_bytes", len(fab))
	return nil
}

// waitForLease polls the coordinator's fleet document until the worker
// holds at least one shard lease.
func waitForLease(ctx context.Context, cc *faultdclient.Client, worker string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		fs, err := cc.Fleet(ctx)
		if err != nil {
			return err
		}
		for _, w := range fs.Workers {
			if w.URL == worker && w.Leases > 0 {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("worker %s never held a lease", worker)
}

// waitForJournal polls the coordinator's journal for a marker substring.
func waitForJournal(path, marker string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && strings.Contains(string(data), marker) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("journal %s never recorded %s", path, marker)
}
