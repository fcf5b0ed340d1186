package fabric

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmafault/internal/metrics"
	"dmafault/internal/obs"
)

// TestRegistryFlapDampingUnderRace hammers the registry's probe-verdict
// path from many goroutines (run under -race by make check) and pins the
// flap-damping invariant: every up→down transition consumes at least
// DownAfter recorded probe failures since the worker last came up, so a
// registry can never oscillate a worker faster than the 2-strike rule no
// matter how verdicts interleave.
func TestRegistryFlapDampingUnderRace(t *testing.T) {
	const url = "http://worker"
	errProbe := errors.New("probe failed")
	r := NewRegistry([]string{url}, nil, NewMetrics(), obs.Nop())

	// Serialized phase first: the rule itself, with no concurrency noise.
	r.apply(url, nil)
	if r.apply(url, errProbe); !r.AnyUp() {
		t.Fatal("one strike demoted the worker")
	}
	r.apply(url, nil) // success resets the streak
	if r.apply(url, errProbe); !r.AnyUp() {
		t.Fatal("one strike after a reset demoted the worker")
	}
	if r.apply(url, errProbe); r.AnyUp() {
		t.Fatal("two consecutive strikes did not demote")
	}
	if v := r.m.WorkerDowns.Value(); v != 1 {
		t.Fatalf("fabric_worker_down_total = %d after one demotion, want 1", v)
	}

	// Concurrent hammer: heartbeat verdicts, joins, scrapes, admissions, and
	// renderings all racing on one worker. The race detector checks the
	// locking; the assertion below checks the damping arithmetic survives
	// every interleaving.
	const goroutines = 8
	const rounds = 400
	// A cancelled context makes Acquire non-blocking: a grant if a slot is
	// free, nil at once otherwise.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 4 {
				case 0:
					r.apply(url, nil)
				case 1:
					failures.Add(1)
					r.apply(url, errProbe)
					r.Join(url)
				case 2:
					r.noteScrape(url, &metrics.Snapshot{}, nil)
				case 3:
					if ref := r.Acquire(cancelled, ""); ref != nil {
						ref.Release()
					}
					r.noteScrape(url, nil, errProbe)
					_ = r.Fleet()
					_ = r.AnyUp()
				}
			}
		}(g)
	}
	wg.Wait()

	downs := int64(r.m.WorkerDowns.Value()) - 1 // minus the serialized phase
	if max := failures.Load() / DefaultDownAfter; downs > max {
		t.Fatalf("worker went down %d times on %d failures — faster than the %d-strike rule allows (max %d)",
			downs, failures.Load(), DefaultDownAfter, max)
	}
}

// TestAcquireExcludesFailedWorker pins the re-lease rule: the excluded
// worker is skipped while another worker is up, even when that other worker
// is saturated (Acquire waits for it), and is granted once no other worker
// is up. The excluded URL sorts first, so dropping the exclusion hands it
// the first grant and fails here.
func TestAcquireExcludesFailedWorker(t *testing.T) {
	const failed, other = "http://a-failed", "http://b-other"
	r := NewRegistry([]string{failed, other}, nil, NewMetrics(), obs.Nop())
	r.MaxLeases = 1
	r.apply(failed, nil)
	r.apply(other, nil)

	ref := r.Acquire(context.Background(), failed)
	if ref == nil || ref.URL != other {
		t.Fatalf("Acquire excluding %s granted %+v, want %s", failed, ref, other)
	}
	// other is saturated: the excluded worker's free slot is still refused.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if got := r.Acquire(ctx, failed); got != nil {
		t.Fatalf("Acquire granted %s while %s was up but saturated", got.URL, other)
	}
	cancel()

	// other goes down mid-wait: the waiter wakes and takes the excluded
	// worker, the only one left up.
	done := make(chan *WorkerRef, 1)
	go func() { done <- r.Acquire(context.Background(), failed) }()
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < DefaultDownAfter; i++ {
		r.apply(other, errors.New("probe failed"))
	}
	select {
	case got := <-done:
		if got == nil || got.URL != failed {
			t.Fatalf("Acquire with no other worker up granted %+v, want %s", got, failed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not wake when the last other worker went down")
	}
	ref.Release()
}

// TestJoinNormalizesURL: a worker listed statically and joining with a
// trailing slash on its advertised URL is one worker, not two — one fleet
// row and one per-node lease cap.
func TestJoinNormalizesURL(t *testing.T) {
	r := NewRegistry([]string{"http://h:8077"}, nil, NewMetrics(), obs.Nop())
	if n := r.Join("http://h:8077/"); n != 1 {
		t.Fatalf("registry holds %d workers after a trailing-slash join, want 1", n)
	}
	rows := r.Fleet().Workers
	if len(rows) != 1 || rows[0].URL != "http://h:8077" || !rows[0].Static {
		t.Fatalf("registry = %+v, want one static worker http://h:8077", rows)
	}
	r = NewRegistry([]string{"http://h:8077/"}, nil, NewMetrics(), obs.Nop())
	if n := r.Join("http://h:8077"); n != 1 {
		t.Fatalf("registry holds %d workers after a join beside a trailing-slash static URL, want 1", n)
	}
}
