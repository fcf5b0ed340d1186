// Command dmafaultd serves the campaign engine over HTTP: submit scenario
// sets as jobs, poll their progress, cancel them, and scrape the unified
// metric surface in Prometheus text format.
//
// The job plane is supervised: submissions pass admission control into a
// bounded FIFO queue (-queue-depth; 429 + Retry-After when full) and at
// most -max-concurrent-campaigns jobs execute at once; a watchdog cancels
// jobs whose progress stalls past -job-stall-timeout; a scenario that
// panics or blows its deadline is recorded as such without failing its job,
// so a job's summary depends only on its scenario set; and with
// -journal-dir set, a restart scans the directory and resumes every
// interrupted job with a byte-identical final summary. SIGTERM/SIGINT
// trigger a graceful shutdown: the listener closes, new submissions get
// 503, running jobs drain (cancelled if the -shutdown-timeout expires
// first), and journals are flushed.
//
// With -cache-dir set, the daemon opens a shared content-addressed result
// store (internal/resultstore) at <dir>/results.bin: every campaign job,
// recovered resume, and fuzz batch consults it before executing a scenario,
// so overlapping submissions replay recorded results instead of
// re-executing. The store persists across restarts; /v1/cache/stats reports
// it and DELETE /v1/cache empties it.
//
// Usage:
//
//	dmafaultd                     # listen on :8077
//	dmafaultd -addr 127.0.0.1:9000 -workers 8 -journal-dir /var/lib/dmafaultd \
//	          -cache-dir /var/cache/dmafaultd
//
//	curl -s localhost:8077/healthz
//	curl -s localhost:8077/readyz
//	curl -s -X POST localhost:8077/v1/campaigns -d '{"preset":"ladder","n":8,"seed":2021}'
//	curl -s localhost:8077/v1/campaigns/1 | head
//	curl -s -X DELETE localhost:8077/v1/campaigns/1
//	curl -s localhost:8077/v1/cache/stats
//	curl -s localhost:8077/metrics | grep iommu_
package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dmafault/internal/cliutil"
	"dmafault/internal/fabric"
	"dmafault/internal/faultd"
	"dmafault/internal/obs"
	"dmafault/internal/resultstore"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second,
		"on SIGTERM/SIGINT, how long to drain in-flight requests and jobs before cancelling them")
	journalDir := flag.String("journal-dir", "",
		"directory for per-job campaign journals (job-<id>.jsonl); scanned at boot to resume interrupted jobs; empty disables journaling")
	maxConcurrent := flag.Int("max-concurrent-campaigns", 4,
		"how many campaign jobs may execute at once; further accepted jobs queue (0 = unlimited)")
	queueDepth := flag.Int("queue-depth", faultd.DefaultQueueDepth,
		"bound on the pending-job queue; submissions beyond it get 429 with Retry-After")
	stallTimeout := flag.Duration("job-stall-timeout", 2*time.Minute,
		"cancel a running job whose progress heartbeat goes quiet for this long (0 disables the watchdog)")
	cacheDir := flag.String("cache-dir", "",
		"directory for the shared content-addressed result cache (results.bin); jobs replay cached scenario results instead of re-executing; empty disables caching")
	join := flag.String("join", "",
		"fabric coordinator base URL to register with (e.g. http://127.0.0.1:9100); the daemon re-announces itself on -join-interval")
	advertise := flag.String("advertise", "",
		"base URL workers should be reached at by the coordinator; empty derives it from the resolved listen address")
	joinInterval := flag.Duration("join-interval", fabric.DefaultJoinInterval,
		"how often to re-announce to the -join coordinator")
	cf := cliutil.New("dmafaultd").WithWorkers().WithQuiet().WithLog()
	cf.Parse()

	// The flight recorder sees every record regardless of console level; its
	// retained window is what the supervisor dumps on stall, panic, and
	// SIGTERM.
	rec := obs.NewRecorder(0)
	log := cf.Logger(rec)

	srv := faultd.NewServer()
	srv.Log = log
	srv.Recorder = rec
	srv.Workers = *cf.Workers
	srv.JournalDir = *journalDir
	srv.MaxConcurrent = *maxConcurrent
	srv.QueueDepth = *queueDepth
	srv.StallTimeout = *stallTimeout

	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			cf.Fatal(err)
		}
		store, err := resultstore.Open(filepath.Join(*cacheDir, "results.bin"))
		if err != nil {
			cf.Fatal(err)
		}
		defer store.Close()
		srv.Cache = store
		st := store.Stats()
		log.Info("result cache open", "path", st.Path,
			"records", st.Records, "stale", st.StaleRecords, "bytes", st.Bytes)
	}

	// Resume whatever a crashed or killed predecessor left behind, before
	// the listener opens: recovered jobs are queued jobs like any other.
	if *journalDir != "" {
		recovered, err := srv.RecoverJobs()
		if err != nil {
			log.Error("journal recovery failed", "err", err, "journal_dir", *journalDir)
		}
		if recovered > 0 {
			log.Info("resumed interrupted jobs", "jobs", recovered, "journal_dir", *journalDir)
		}
	}

	// Bind before announcing: "listening on" is only printed once the
	// listener actually exists, and a bind failure exits nonzero.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cf.Fatal(err)
	}
	// soaksmoke parses this record (msg=listening, addr=...) to find the
	// resolved ephemeral port — keep the message and the addr key stable.
	log.Info("listening",
		"addr", ln.Addr().String(),
		"queue_depth", *queueDepth,
		"max_concurrent", *maxConcurrent,
		"journal_dir", *journalDir)

	// Announce this worker to its fabric coordinator for as long as the
	// process lives; shutdown stops the loop, and the coordinator's
	// heartbeat (plus the lease-aware /readyz refusing new shards once the
	// drain begins) handles the rest.
	joinCtx, stopJoin := context.WithCancel(context.Background())
	defer stopJoin()
	if *join != "" {
		adv := *advertise
		if adv == "" {
			adv = advertiseURL(ln.Addr().String())
		}
		go fabric.JoinLoop(joinCtx, *join, adv, *joinInterval, log)
	}

	hs := &http.Server{Handler: srv.Handler()}
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		<-sig
		stopJoin()
		log.Info("shutting down", "drain_deadline", shutdownTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		// Stop accepting, finish in-flight requests, then drain (or cancel)
		// running jobs so their journals record every completed scenario.
		if err := hs.Shutdown(ctx); err != nil {
			log.Error("http shutdown", "err", err)
		}
		if err := srv.Drain(ctx); err != nil {
			log.Warn("drain deadline expired, cancelled remaining jobs", "err", err)
		}
	}()

	if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cf.Fatal(err)
	}
	<-idle
}

// advertiseURL derives a dialable base URL from the resolved listen
// address: an unspecified host (":8077", "[::]:8077") becomes loopback —
// the single-host default; multi-host fabrics pass -advertise explicitly.
func advertiseURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
