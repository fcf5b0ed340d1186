// Command soaksmoke is the process-level soak behind `make soaksmoke`: the
// properties that need real processes — kill -9, restart on the same
// on-disk state, SIGTERM drain, and the binaries' own flags. It builds
// dmafaultd, campaign and fabrictop once, runs a saved set of stall
// scenarios through a plain single-node campaign as the byte-identity
// reference, and drives two phases in order:
//
//   - daemon (this file): fault-injected jobs through the bounded
//     scheduler, random cancels, kill -9 of the daemon mid-victim, a restart
//     on the same journal directory whose recovery finishes the victim, and a
//     post-restart submission that gets a later ID;
//   - fabric (fabricsoak.go): a coordinator over three workers (one joined
//     at runtime) under a mild netchaos plan with the -fleetobs scrape on;
//     kill -9 of a leasing worker, then of the coordinator once a re-lease
//     is journaled, and a -resume whose summary must match the reference
//     byte for byte.
//
// Everything that needs no process — integrity rejection under chaos, torn
// event streams, per-phase fleet attribution, fabrictop's rendering — is
// pinned by tier-1 tests instead. All daemon traffic goes through the typed /v1
// client (internal/faultdclient).
//
// Usage:
//
//	soaksmoke            # the soak (~15 s)
//	soaksmoke -seed 7    # re-roll which daemon-phase jobs get cancelled
//	soaksmoke -keep      # keep the scratch directory and process logs
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/cliutil"
	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

func main() {
	keep := flag.Bool("keep", false, "keep the scratch directory for inspection")
	cf := cliutil.New("soaksmoke").WithSeed().WithLog()
	cf.Parse()
	log := cf.Logger(nil)
	if err := run(log, *cf.Seed, *keep); err != nil {
		log.Error("soak failed", "err", err)
		os.Exit(1)
	}
	fmt.Println("soaksmoke: OK")
}

func run(log *slog.Logger, seed int64, keep bool) error {
	dir, cleanup, err := scratchDir(log, keep)
	if err != nil {
		return err
	}
	defer cleanup()
	r, err := newRig(dir, 32)
	if err != nil {
		return err
	}
	if err := daemonPhase(log, r, seed); err != nil {
		return fmt.Errorf("daemon phase: %w", err)
	}
	if err := fabricPhase(log, r); err != nil {
		return fmt.Errorf("fabric phase: %w", err)
	}
	return nil
}

// daemonPhase soaks one dmafaultd's supervision layer — admission,
// scheduler, cancellation, journal recovery, graceful shutdown.
func daemonPhase(log *slog.Logger, r *rig, seed int64) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	journalDir := filepath.Join(r.dir, "journals")
	if err := os.Mkdir(journalDir, 0o755); err != nil {
		return err
	}

	// Boot, load the job plane, chaos-cancel, then kill -9.
	d, err := startDaemon(log, r, journalDir)
	if err != nil {
		return err
	}
	defer d.kill()
	// Fast jobs with the fault plan armed: injected DMA corruption and
	// allocator pressure on every scenario, plus one deliberate scenario
	// panic, keep the hardened paths hot while the scheduler multiplexes
	// the jobs over 2 slots.
	var ids []int
	for i := 0; i < 6; i++ {
		fault := "dma-corrupt:0.01,alloc-fail:0.002"
		if i == 2 {
			fault = "scenario-panic@1"
		}
		acc, err := d.c.Submit(ctx, api.SubmitRequest{
			Name: fmt.Sprintf("soak-%d", i), Workers: 2,
			Scenarios: faultScenarios(4, 100+4*i, fault),
		})
		if err != nil {
			return err
		}
		ids = append(ids, acc.ID)
	}
	// The victim: serial 250ms stalls, long enough to be mid-flight when
	// the SIGKILL lands and to span the restart.
	acc, err := d.c.Submit(ctx, api.SubmitRequest{
		Name: "victim", Workers: 1, Scenarios: stallScenarios(10),
	})
	if err != nil {
		return err
	}
	victim := acc.ID

	// Random mid-flight cancels: each fast job has a 1-in-3 chance. A 409
	// means the job beat the cancel to the finish line — fine mid-chaos.
	cancelled := map[int]bool{}
	for _, id := range ids {
		if rng.Intn(3) == 0 {
			if _, err := d.c.Cancel(ctx, id); err != nil && !faultdclient.IsConflict(err) {
				return fmt.Errorf("cancel %d: %w", id, err)
			}
			cancelled[id] = true
		}
	}

	// Wait for the victim to make real progress, then pull the plug.
	if err := d.waitProgress(victim, 2, 30*time.Second); err != nil {
		return err
	}
	if err := d.kill(); err != nil {
		return fmt.Errorf("kill -9: %w", err)
	}

	// Restart against the same journal directory; recovery must
	// re-register the interrupted victim and run it to completion.
	d2, err := startDaemon(log, r, journalDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill()

	job, err := d2.waitTerminal(victim, 60*time.Second)
	if err != nil {
		return fmt.Errorf("victim after restart: %w", err)
	}
	if !job.Recovered {
		return fmt.Errorf("victim job %d not marked recovered: %+v", victim, job)
	}
	if job.Status != api.StatusDone || job.ScenariosDone != 10 {
		return fmt.Errorf("victim did not finish after recovery: %+v", job)
	}

	// The restarted daemon is a fresh service: fast jobs that finished
	// before the kill are finished journals (not re-registered), and new
	// submissions work immediately.
	check, err := d2.c.Submit(ctx, api.SubmitRequest{Name: "post-restart", Preset: "ladder", N: 4, Seed: 9})
	if err != nil {
		return fmt.Errorf("post-restart submit: %w", err)
	}
	if check.ID <= victim {
		return fmt.Errorf("post-restart job ID %d not past recovered ID %d", check.ID, victim)
	}
	if job, err := d2.waitTerminal(check.ID, 60*time.Second); err != nil || job.Status != api.StatusDone {
		return fmt.Errorf("post-restart job: %+v, %v", job, err)
	}

	// Graceful exit: SIGTERM drains and the process ends cleanly.
	if err := d2.term(15 * time.Second); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	log.Info("daemon phase finished",
		"jobs", len(ids)+2, "chaos_cancelled", len(cancelled), "recovered_victim", victim)
	return nil
}

// faultScenarios builds n window-ladder scenarios with the given fault spec
// armed on each.
func faultScenarios(n, seed int, fault string) []campaign.Scenario {
	scs := make([]campaign.Scenario, n)
	for i := range scs {
		scs[i] = campaign.Scenario{Kind: "window-ladder", Seed: int64(seed + i), FaultSpec: fault}
	}
	return scs
}

func stallScenarios(n int) []campaign.Scenario {
	scs := make([]campaign.Scenario, n)
	for i := range scs {
		scs[i] = campaign.Scenario{Kind: "window-ladder", Seed: int64(300 + i), FaultSpec: "scenario-stall@1"}
	}
	return scs
}

// startDaemon boots dmafaultd on an ephemeral port and waits for /healthz.
func startDaemon(log *slog.Logger, r *rig, journalDir string) (*proc, error) {
	d, err := startProc(log, r.dir, "daemon", r.daemonBin,
		"-addr", "127.0.0.1:0",
		"-journal-dir", journalDir,
		"-max-concurrent-campaigns", "2",
		"-queue-depth", "32",
		"-job-stall-timeout", "1m",
	)
	if err != nil {
		return nil, err
	}
	if err := preflightWorkers(context.Background(), []string{d.url}, 10*time.Second); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}
