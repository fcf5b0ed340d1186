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
)

// Chaos soak (`make chaossmoke`, soaksmoke -chaos): the byzantine-fabric
// end-to-end test. Three healthy workers, one coordinator — but every
// worker-bound request rides a deterministic netchaos plan that bit-flips
// and truncates response bodies, injects 503 storms, drops connections, and
// opens short per-host partitions. The coordinator must shrug all of it off:
// torn and corrupted deliveries are rejected (never merged), stragglers are
// stolen onto idle workers, and the merged summary still comes out
// byte-identical to a clean single-node run of the same scenario set. The
// final metrics file has to prove both defenses actually fired
// (fabric_integrity_rejected_total > 0, fabric_steals_total > 0).

// chaosPlanSpec is the wire-fault mix for the soak. Bit flips corrupt
// result payloads (caught by the digest/identity checks), truncation tears
// poll bodies mid-document, 503s and connection drops exercise the retry
// ladder, and the rare partition takes a worker fully dark for a few
// requests so heartbeat demotion and re-lease run too.
const (
	chaosPlanSpec = "bitflip:0.25,truncate:0.08,http-503:0.08,conn-drop:0.05,partition:0.01"
	chaosPlanSeed = "11"
)

var (
	integrityRE = regexp.MustCompile(`(?m)^fabric_integrity_rejected_total ([0-9.e+]+)$`)
	stealsRE    = regexp.MustCompile(`(?m)^fabric_steals_total ([0-9.e+]+)$`)
)

func runChaosSoak(log *slog.Logger, keep bool) error {
	ctx := context.Background()
	dir, cleanup, err := scratchDir(log, "chaossmoke-", keep)
	if err != nil {
		return err
	}
	defer cleanup()

	// Three healthy workers — the hostility lives entirely in the transport
	// — over 28 stall scenarios: at -shard-size 4 that is 7 shards over 3
	// workers, an uneven tail every time, so idle workers are around to
	// steal stragglers.
	rig, err := newFabricRig(ctx, log, dir, 28)
	if err != nil {
		return err
	}
	defer rig.close()

	fabricPath := filepath.Join(dir, "fabric.json")
	metricsPath := filepath.Join(dir, "fabric-metrics.txt")
	coord, err := startProc(log, dir, "coordinator", rig.campaignBin,
		"-coordinator", "-scenarios", rig.setPath,
		"-worker-urls", strings.Join(rig.urls(), ","),
		"-coordinator-addr", "127.0.0.1:0",
		// -lease-attempts 6 keeps shards on the fabric through chaos-induced
		// failures (the default 3 exhausts fast under this plan and falls
		// back to local execution, which starves the steal path we assert on).
		"-shard-size", "4", "-lease-ttl", "20s", "-lease-attempts", "6",
		"-fabric-heartbeat", "200ms",
		"-netchaos", chaosPlanSpec, "-netchaos-seed", chaosPlanSeed,
		"-steal-after", "300ms", "-byzantine-threshold", "3",
		"-fabric-metrics", metricsPath,
		"-out", fabricPath,
	)
	if err != nil {
		return err
	}
	defer coord.kill()
	if err := coord.waitExit(3 * time.Minute); err != nil {
		return fmt.Errorf("coordinator under chaos: %w", err)
	}

	fab, err := rig.matchSingle(fabricPath, "chaos fabric")
	if err != nil {
		return err
	}

	// Both defenses must have actually fired: corrupted/torn deliveries
	// rejected, and at least one straggler speculatively re-leased.
	mt, err := os.ReadFile(metricsPath)
	if err != nil {
		return fmt.Errorf("fabric metrics: %w", err)
	}
	rejected, err := metricValue(mt, integrityRE, "fabric_integrity_rejected_total", metricsPath)
	if err != nil {
		return err
	}
	steals, err := metricValue(mt, stealsRE, "fabric_steals_total", metricsPath)
	if err != nil {
		return err
	}

	log.Info("chaos soak finished", "integrity_rejected", rejected,
		"steals", steals, "summary_bytes", len(fab))
	return nil
}

// metricValue extracts one counter from a metrics exposition and requires
// it to be positive — OmitZero means an exceptional-condition family that
// never fired is absent entirely, which is equally a failure here.
func metricValue(exposition []byte, re *regexp.Regexp, name, path string) (float64, error) {
	m := re.FindSubmatch(exposition)
	if m == nil {
		return 0, fmt.Errorf("%s missing from %s — the chaos plan never tripped it", name, path)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("%s = %s, want > 0", name, m[1])
	}
	return v, nil
}
