// Command soaksmoke is the dmafaultd chaos soak behind `make soaksmoke`: it
// builds and boots the daemon, hammers the job plane with fault-injected
// campaigns, cancels some mid-flight, kill -9s the daemon while a campaign
// is running, restarts it against the same journal directory, and verifies
// that boot recovery resumes and finishes the interrupted work. A short run
// (~15s) that proves the whole supervision layer — admission, scheduler,
// journal recovery, graceful shutdown — on every `make check`. All daemon
// traffic goes through the typed /v1 client (internal/faultdclient).
//
// Usage:
//
//	soaksmoke            # default soak
//	soaksmoke -seed 7    # re-roll which jobs get cancelled
//	soaksmoke -fabric    # multi-node fabric soak (see fabricsoak.go)
//	soaksmoke -chaos     # byzantine fabric soak under netchaos (see chaossoak.go)
//	soaksmoke -fleet     # fleet observability soak (see fleetsoak.go)
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
	fabricSoak := flag.Bool("fabric", false,
		"run the multi-node fabric soak (coordinator + 3 workers, dead-worker re-lease, coordinator resume) instead of the daemon chaos soak")
	chaosSoak := flag.Bool("chaos", false,
		"run the byzantine fabric soak (coordinator + 3 workers under a netchaos plan: corrupt bodies, 503 storms, partitions; byte-compared against a clean single-node run) instead of the daemon chaos soak")
	fleetSoak := flag.Bool("fleet", false,
		"run the fleet observability soak (coordinator + 3 workers with -fleetobs under mild netchaos: /v1/fleet must attribute per-phase time to all workers, fabrictop -once must render them, and the summary must match a clean run) instead of the daemon chaos soak")
	cf := cliutil.New("soaksmoke").WithSeed().WithLog()
	cf.Parse()
	log := cf.Logger(nil)
	if *fabricSoak {
		if err := runFabricSoak(log, *keep); err != nil {
			log.Error("fabric soak failed", "err", err)
			os.Exit(1)
		}
		fmt.Println("fabricsmoke: OK")
		return
	}
	if *chaosSoak {
		if err := runChaosSoak(log, *keep); err != nil {
			log.Error("chaos soak failed", "err", err)
			os.Exit(1)
		}
		fmt.Println("chaossmoke: OK")
		return
	}
	if *fleetSoak {
		if err := runFleetSoak(log, *keep); err != nil {
			log.Error("fleet soak failed", "err", err)
			os.Exit(1)
		}
		fmt.Println("fleetsmoke: OK")
		return
	}
	if err := run(log, *cf.Seed, *keep); err != nil {
		log.Error("soak failed", "err", err)
		os.Exit(1)
	}
	fmt.Println("soaksmoke: OK")
}

func run(log *slog.Logger, seed int64, keep bool) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	dir, cleanup, err := scratchDir(log, "soaksmoke-", keep)
	if err != nil {
		return err
	}
	defer cleanup()
	journalDir := filepath.Join(dir, "journals")
	if err := os.Mkdir(journalDir, 0o755); err != nil {
		return err
	}
	bin, err := build(dir, "dmafaultd")
	if err != nil {
		return err
	}

	// Phase 1: boot, load the job plane, chaos-cancel, then kill -9.
	d, err := startDaemon(log, dir, bin, journalDir)
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

	// Phase 2: restart against the same journal directory; recovery must
	// re-register the interrupted victim and run it to completion.
	d2, err := startDaemon(log, dir, bin, journalDir)
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

	// The restarted daemon is a fresh service: fast jobs from phase 1 that
	// finished before the kill are finished journals (not re-registered),
	// and new submissions work immediately.
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
	log.Info("soak finished",
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
func startDaemon(log *slog.Logger, dir, bin, journalDir string) (*proc, error) {
	d, err := startProc(log, dir, "daemon", bin,
		"-addr", "127.0.0.1:0",
		"-journal-dir", journalDir,
		"-max-concurrent-campaigns", "2",
		"-queue-depth", "32",
		"-job-stall-timeout", "1m",
		"-quarantine-threshold", "3",
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
