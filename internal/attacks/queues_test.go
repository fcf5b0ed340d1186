package attacks

import (
	"reflect"
	"testing"

	"dmafault/internal/mem"
	"dmafault/internal/netstack"
)

// §5.3: "The memory footprint ... depends on the NIC capabilities and the
// number of cores (number of RX rings) on the server. This means such
// attacks have a higher chance of success on larger machines."
func TestFootprintScalesWithQueues(t *testing.T) {
	_, _, one, err := BootOnceOpts(Kernel50, 9, BootOptions{JitterPages: BootJitterPages, Queues: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, four, err := BootOnceOpts(Kernel50, 9, BootOptions{JitterPages: BootJitterPages, Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	if four.CoveredPages < 3*one.CoveredPages {
		t.Errorf("4-queue footprint %d pages not ~4x the 1-queue %d", four.CoveredPages, one.CoveredPages)
	}
}

func TestMoreQueuesRaiseRepeatProbability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-boot study is slow")
	}
	const trials = 16
	study := func(queues int) float64 {
		st, err := RunBootStudyOpts(Kernel50, trials, 4000, BootOptions{JitterPages: 2048, Queues: queues})
		if err != nil {
			t.Fatal(err)
		}
		return st.ModalRate
	}
	// Under heavy drift (2048 pages), one queue's small footprint repeats
	// poorly; eight queues blanket the drift range.
	r1 := study(1)
	r8 := study(8)
	t.Logf("repeat rate: 1 queue %.2f, 8 queues %.2f", r1, r8)
	if r8 < r1 {
		t.Errorf("more queues did not help: %.2f vs %.2f", r8, r1)
	}
	if r8 < 0.9 {
		t.Errorf("8-queue repeat rate %.2f below 0.9", r8)
	}
}

// TestAutoSizedBootsFitMemoryBound keeps mem.MaxPhysBytes above every
// auto-sized boot the presets can ask for: the mutator draws up to 4 RX
// queues, and 4.15's HW-LRO rings are the largest.
func TestAutoSizedBootsFitMemoryBound(t *testing.T) {
	for _, v := range []KernelVersion{Kernel50, Kernel415} {
		for _, queues := range []int{1, 2, 4} {
			if got := autoMemBytes(driverFor(v), queues); got > mem.MaxPhysBytes {
				t.Errorf("%v with %d queues auto-sizes to %d bytes, above mem.MaxPhysBytes", v, queues, got)
			}
		}
	}
}

// A boot builds struct pages only for the chunks its allocations reach: a
// Kernel 5.0 machine's boot footprint (fixed pages, jitter, one RX ring)
// fits in a few of its 512-frame chunks however large the machine is.
func TestBootBuildsFewChunks(t *testing.T) {
	sys, _, _, err := BootOnceOpts(Kernel50, 2021, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.Mem.ChunksBuilt(); n > 4 {
		t.Errorf("one Kernel 5.0 boot built %d chunks of struct pages, want at most 4", n)
	}
}

// TestRingRecordSizedOnce: recording a ring allocates the same whatever its
// length — Starts is sized once per ring, not regrown per descriptor — and
// records exactly what the boot recorded.
func TestRingRecordSizedOnce(t *testing.T) {
	sys, nic, want, err := BootOnceOpts(Kernel415, 9, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	ring := nic.RXRing()
	record := func(ring []netstack.RXDesc) *BootRecord {
		rec := &BootRecord{Seed: 9}
		n := sys.Mem.NumPages()
		rec.addRing(sys.Layout, ring, newFrameSet(n), newFrameSet(n))
		return rec
	}
	if got := record(ring); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring record differs from the boot's: %d starts, %d pages against %d, %d",
			len(got.Starts), got.CoveredPages, len(want.Starts), want.CoveredPages)
	}
	allocs := func(ring []netstack.RXDesc) float64 {
		return testing.AllocsPerRun(20, func() { record(ring) })
	}
	if short, full := allocs(ring[:8]), allocs(ring); full != short {
		t.Fatalf("recording %d descriptors allocates %v times, %d descriptors %v: Starts regrows with the ring",
			len(ring), full, 8, short)
	}
}
