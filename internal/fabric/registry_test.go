package fabric

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dmafault/internal/metrics"
	"dmafault/internal/obs"
)

// TestRegistryFlapDampingUnderRace hammers the registry's promote/demote
// and byzantine note paths from many goroutines (run under -race by make
// check) and pins the flap-damping invariant: every up→down transition
// consumes at least DownAfter recorded probe failures since the worker last
// came up, so a registry can never oscillate a worker faster than the
// 2-strike rule no matter how verdicts interleave.
func TestRegistryFlapDampingUnderRace(t *testing.T) {
	const url = "http://worker"
	errProbe := errors.New("probe failed")
	r := NewRegistry([]string{url}, nil, NewMetrics(), obs.Nop())

	// Serialized phase first: the rule itself, with no concurrency noise.
	r.markUp(url)
	if r.noteFailure(url) {
		t.Fatal("one strike demoted the worker")
	}
	r.markUp(url) // success resets the streak
	if r.noteFailure(url) {
		t.Fatal("one strike after a reset demoted the worker")
	}
	if !r.noteFailure(url) {
		t.Fatal("two consecutive strikes did not demote")
	}
	r.markDown(url, errProbe)
	if v := r.m.WorkerDowns.Value(); v != 1 {
		t.Fatalf("fabric_worker_down_total = %d after one demotion, want 1", v)
	}

	// Concurrent hammer: heartbeat verdicts, scrapes, byzantine notes,
	// admissions, and snapshots all racing on one worker. The race detector
	// checks the locking; the assertion below checks the damping arithmetic
	// survives every interleaving.
	const goroutines = 8
	const rounds = 400
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch (g + i) % 4 {
				case 0:
					r.markUp(url)
				case 1:
					failures.Add(1)
					if r.noteFailure(url) {
						r.markDown(url, errProbe)
					}
				case 2:
					r.NoteBadDelivery(url)
					r.NoteGoodDelivery(url)
					r.noteScrape(url, i%2 == 0, &metrics.Snapshot{}, nil)
				case 3:
					if ref := r.AcquireIdle(""); ref != nil {
						ref.Release()
					}
					r.noteScrape(url, false, nil, errProbe)
					_ = r.Snapshot()
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
