package attacks

import (
	"testing"

	"dmafault/internal/mem"
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
