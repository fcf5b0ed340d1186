// Command fabrictop is a live terminal dashboard for a fabric coordinator
// (campaign -coordinator -coordinator-addr ...). It follows the
// coordinator's SSE stream and redraws one screen per "fleet" event — the
// /v1/fleet document, sent on every heartbeat beat: per-worker lease load,
// per-phase latency totals, EWMA shard latency and throughput, cache hit
// rate, registry state (up/down), readiness, and campaign progress. READY is
// the heartbeat's last lease-aware probe verdict ("stale" marks a refused
// worker whose -fleetobs scrape failed after a success); the fleet totals
// come from the -fleetobs scrape and are absent without it.
//
// When the SSE stream is unavailable (no -coordinator-addr hub, a proxy that
// buffers streams), fabrictop falls back to polling GET /v1/fleet on
// -interval. -once fetches a single snapshot, renders it without any screen
// control sequences, and exits — the scriptable form the smoke tests use.
//
// Usage:
//
//	fabrictop -coordinator http://127.0.0.1:9100          # live dashboard
//	fabrictop -coordinator http://127.0.0.1:9100 -once    # one snapshot
//	fabrictop -coordinator http://127.0.0.1:9100 -interval 2s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
)

func main() {
	coordinator := flag.String("coordinator", "http://127.0.0.1:9100",
		"fabric coordinator base URL (its -coordinator-addr surface)")
	once := flag.Bool("once", false, "fetch one /v1/fleet snapshot, render it, exit")
	interval := flag.Duration("interval", time.Second, "poll cadence when the SSE stream is unavailable")
	flag.Parse()

	base := strings.TrimRight(*coordinator, "/")
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()

	if *once {
		fs, err := faultdclient.New(base).Fleet(ctx)
		if err != nil {
			fatal(err)
		}
		os.Stdout.WriteString(render(fs, false))
		return
	}

	// Live mode: prefer the SSE stream (one redraw per heartbeat beat, no
	// polling drift); fall back to /v1/fleet polling if the stream cannot be
	// established or breaks.
	for ctx.Err() == nil {
		err := followSSE(ctx, base)
		if ctx.Err() != nil {
			break
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabrictop: stream unavailable (%v); polling %s/v1/fleet\n", err, base)
		}
		if pollErr := poll(ctx, base, *interval); pollErr != nil && ctx.Err() == nil {
			fatal(pollErr)
		}
	}
	os.Stdout.WriteString("\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fabrictop:", err)
	os.Exit(1)
}

// followSSE consumes the coordinator's event stream, redrawing on every
// "fleet" event and exiting cleanly on the terminal "status" event. Returns
// nil when the campaign ended, an error when the stream could not be used.
func followSSE(ctx context.Context, base string) error {
	status, err := faultdclient.New(base).Stream(ctx, "/v1/fabric/events", func(e faultdclient.Event) error {
		if e.Type != "fleet" {
			return nil
		}
		var fs api.FleetSnapshot
		if json.Unmarshal(e.Data, &fs) != nil {
			return nil // a torn event is not worth a redraw
		}
		os.Stdout.WriteString(render(&fs, true))
		return nil
	})
	if err != nil {
		return err
	}
	if status != "" {
		fmt.Printf("\ncampaign %s\n", status)
		os.Exit(0)
	}
	return fmt.Errorf("stream ended")
}

// poll renders /v1/fleet on the interval until ctx ends — the degraded mode
// for coordinators without a hub.
func poll(ctx context.Context, base string, interval time.Duration) error {
	cl := faultdclient.New(base)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		fs, err := cl.Fleet(ctx)
		if err != nil {
			return err
		}
		os.Stdout.WriteString(render(fs, true))
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
	}
}

// render lays out one snapshot as a screen. With clear set it prefixes the
// ANSI clear-and-home sequence, turning repeated calls into a live redraw;
// without it the output is plain text (-once).
func render(fs *api.FleetSnapshot, clear bool) string {
	var b strings.Builder
	if clear {
		b.WriteString("\x1b[2J\x1b[H")
	}
	b.WriteString("FABRIC FLEET")
	if c := fs.Campaign; c != nil {
		fmt.Fprintf(&b, "   campaign %d/%d scenarios, %d/%d shards",
			c.ScenariosDone, c.ScenariosTotal, c.ShardsDone, c.ShardsTotal)
		if c.ScenariosTotal > 0 {
			fmt.Fprintf(&b, " (%.0f%%)", 100*float64(c.ScenariosDone)/float64(c.ScenariosTotal))
		}
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-28s %-6s %-6s %6s %7s %7s  %9s %9s %9s  %8s %9s %6s\n",
		"WORKER", "STATE", "LEASES", "SHARDS", "SCENES", "CACHE%",
		"QWAIT(s)", "EXEC(s)", "PUB(s)", "EWMA(s)", "SCEN/S", "READY")
	for _, w := range fs.Workers {
		state := "down"
		if w.Up {
			state = "up"
		}
		cachePct := "-"
		if w.Scenarios > 0 {
			cachePct = fmt.Sprintf("%.0f%%", 100*float64(w.CacheHits)/float64(w.Scenarios))
		}
		fmt.Fprintf(&b, "%-28s %-6s %-6d %6d %7d %7s  %9.3f %9.3f %9.3f  %8.3f %9.1f %6s\n",
			trimURL(w.URL), state, w.Leases, w.Delivered, w.Scenarios, cachePct,
			w.PhaseTotals.QueueWait, w.PhaseTotals.Execute, w.PhaseTotals.Publish,
			w.EWMAShardSeconds, w.EWMAScenariosPerSec, ready(w))
	}
	if len(fs.Workers) == 0 {
		b.WriteString("(no workers registered)\n")
	}
	if fs.Metrics != nil {
		if v := fs.Metrics.Total("faultd_campaigns_completed_total"); v > 0 {
			fmt.Fprintf(&b, "\nfleet totals: %g campaigns completed, %g requests served\n",
				v, fs.Metrics.Total("faultd_requests_total"))
		}
	}
	return b.String()
}

// ready condenses the probe verdict and the scrape's freshness flag.
func ready(w api.FleetWorker) string {
	switch {
	case w.Ready:
		return "yes"
	case w.Stale:
		return "stale"
	default:
		return "no"
	}
}

// trimURL drops the scheme so worker columns stay narrow.
func trimURL(u string) string {
	u = strings.TrimPrefix(u, "http://")
	return strings.TrimPrefix(u, "https://")
}
