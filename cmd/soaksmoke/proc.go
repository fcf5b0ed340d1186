package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"

	"dmafault/internal/campaign"
	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

// The daemon and the coordinator both announce their listener as a
// structured slog record (msg=listening addr=HOST:PORT ...); addrRE pulls
// the resolved address out of that line.
var addrRE = regexp.MustCompile(`\baddr=(\S+)`)

// scratchDir makes the soak's working directory; cleanup removes it unless
// keep asks for it to stay for inspection.
func scratchDir(log *slog.Logger, keep bool) (dir string, cleanup func(), err error) {
	dir, err = os.MkdirTemp("", "soaksmoke-")
	if err != nil {
		return "", nil, err
	}
	if keep {
		log.Info("keeping scratch dir", "dir", dir)
		return dir, func() {}, nil
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// rig is what both phases share: the scratch directory, the dmafaultd,
// campaign and fabrictop binaries, a saved set of stall scenarios, and that
// set's summary from a plain single-node run (the byte-identity oracle).
type rig struct {
	dir                            string
	daemonBin, campaignBin, topBin string
	setPath, singleOut             string
}

// newRig builds the three binaries in one go build and runs the reference
// over n stall scenarios (~250 ms each, slow enough that the fabric is
// always mid-flight).
func newRig(dir string, n int) (*rig, error) {
	r := &rig{
		dir:         dir,
		daemonBin:   filepath.Join(dir, "dmafaultd"),
		campaignBin: filepath.Join(dir, "campaign"),
		topBin:      filepath.Join(dir, "fabrictop"),
		setPath:     filepath.Join(dir, "set.json"),
		singleOut:   filepath.Join(dir, "single.json"),
	}
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/dmafaultd", "./cmd/campaign", "./cmd/fabrictop").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build: %v\n%s", err, out)
	}
	f, err := os.Create(r.setPath)
	if err != nil {
		return nil, err
	}
	if err := campaign.SaveScenarios(f, stallScenarios(n)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if out, err := exec.Command(r.campaignBin,
		"-scenarios", r.setPath, "-out", r.singleOut, "-quiet").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("single-node reference run: %v\n%s", err, out)
	}
	return r, nil
}

// matchSingle requires the summary at path to be byte-identical to the
// single-node reference, and returns it.
func (r *rig) matchSingle(path string) ([]byte, error) {
	single, err := os.ReadFile(r.singleOut)
	if err != nil {
		return nil, err
	}
	fab, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fabric summary: %w", err)
	}
	if !bytes.Equal(single, fab) {
		return nil, fmt.Errorf("fabric summary differs from the single-node run (%d vs %d bytes); kept at %s / %s",
			len(fab), len(single), path, r.singleOut)
	}
	return fab, nil
}

// proc is one announced child process (worker daemon or coordinator) and
// a /v1 client for it.
type proc struct {
	cmd *exec.Cmd
	url string
	c   *faultdclient.Client
}

var procSeq int

// startProc launches the binary, tees its stderr to <dir>/<role>-N.log for
// post-mortems (-keep), and waits for its listener announcement.
func startProc(log *slog.Logger, dir, role, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	procSeq++
	logPath := filepath.Join(dir, fmt.Sprintf("%s-%d.log", role, procSeq))
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		// Keep draining stderr for the process's lifetime so it never
		// blocks on a full pipe.
		defer lf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			if !strings.Contains(line, "listening") {
				continue
			}
			if m := addrRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p := &proc{cmd: cmd, url: "http://" + addr}
		p.c = faultdclient.New(p.url)
		log.Info("started", "role", role, "url", p.url)
		return p, nil
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		return nil, fmt.Errorf("%s never announced its listener", role)
	}
}

// kill sends SIGKILL: no drain, no journal flush beyond appended lines.
func (p *proc) kill() error {
	if p.cmd.Process == nil {
		return nil
	}
	err := p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
	return err
}

// term sends SIGTERM and waits for a clean exit within the budget.
func (p *proc) term(budget time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { _, err := p.cmd.Process.Wait(); done <- err }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("did not exit within %s of SIGTERM", budget)
	}
}

// waitExit waits for the process to finish and succeed.
func (p *proc) waitExit(budget time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(budget):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("did not finish within %s", budget)
	}
}

// waitProgress polls until the job has completed at least n scenarios.
func (p *proc) waitProgress(id, n int, budget time.Duration) error {
	ctx := context.Background()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		j, err := p.c.Get(ctx, id)
		if err != nil {
			return err
		}
		if j.ScenariosDone >= n {
			return nil
		}
		if j.Status.Terminal() {
			return fmt.Errorf("job %d ended %q before making progress", id, j.Status)
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("job %d never reached %d completions", id, n)
}

// waitTerminal follows the job's event stream to its terminal status, then
// fetches the job document.
func (p *proc) waitTerminal(id int, budget time.Duration) (*api.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	status, err := p.c.Watch(ctx, id, nil)
	if err != nil {
		return nil, fmt.Errorf("job %d: %w", id, err)
	}
	if status == "" {
		return nil, fmt.Errorf("job %d: event stream ended without a status", id)
	}
	return p.c.Get(ctx, id)
}

// preflightWorkers verifies every worker URL answers /healthz before the
// coordinator is launched. Each unreachable worker is named in the error so
// the operator knows exactly which endpoint to fix.
func preflightWorkers(ctx context.Context, urls []string, budget time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	down := make([]bool, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			cl := faultdclient.New(u)
			for {
				if body, err := cl.Health(ctx); err == nil && body == "ok" {
					return
				}
				if ctx.Err() != nil {
					down[i] = true
					return
				}
				time.Sleep(100 * time.Millisecond)
			}
		}(i, u)
	}
	wg.Wait()
	var dead []string
	for i, u := range urls {
		if down[i] {
			dead = append(dead, u)
		}
	}
	if len(dead) > 0 {
		return fmt.Errorf("worker preflight failed: unreachable at startup: %s "+
			"(no /healthz response within %s — check the worker URLs before soaking)",
			strings.Join(dead, ", "), budget)
	}
	return nil
}
