package attacks

import (
	"testing"

	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

// The §5.2 conclusion as a matrix: Poisoned TX succeeds under every driver
// ordering × invalidation mode, riding whichever Fig. 7 path is open.
func TestPoisonedTXAcrossDriverAndModeMatrix(t *testing.T) {
	cases := []struct {
		model    netstack.DriverModel
		mode     iommu.Mode
		wantPath WindowPath
	}{
		{netstack.DriverI40E, iommu.Deferred, WindowDriverOrder},
		{netstack.DriverI40E, iommu.Strict, WindowDriverOrder},
		{netstack.DriverCorrect, iommu.Deferred, WindowStaleIOTLB},
		{netstack.DriverCorrect, iommu.Strict, WindowNeighborIOVA},
	}
	for _, c := range cases {
		name := c.model.Name + "/" + c.mode.String()
		sys, nic := bootVictim(t, c.mode, false, c.model)
		r := RunPoisonedTX(sys, nic)
		if !r.Success {
			t.Errorf("%s: attack failed:\n%s", name, r.String())
			continue
		}
		if got := r.Detail["window_path"]; got != c.wantPath.String() {
			t.Errorf("%s: used path %q, want %q", name, got, c.wantPath)
		}
		t.Logf("%-18s escalated via %s", name, r.Detail["window_path"])
	}
}

// RingFlood likewise works in strict mode — but only where path (iii)
// exists, i.e. on sub-page (page_frag) RX buffers (§5.2.2: "this holds as
// long as the buffer sizes are smaller than 4 KB"). Kernel 5.0's 2 KiB
// buffers qualify; 4.15's 64 KiB LRO buffers own whole pages and are tested
// below as the honest negative.
func TestRingFloodStrictMode(t *testing.T) {
	if testing.Short() {
		t.Skip("boot study is slow")
	}
	st, err := RunBootStudyOpts(Kernel50, 10, 4242, BootOptions{JitterPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	sys, nic, _, err := BootOnceOpts(Kernel50, 4242+3, BootOptions{JitterPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	sys.IOMMU.SetMode(iommu.Strict)
	r := RunRingFlood(sys, nic, st)
	t.Log("\n" + r.String())
	if !r.Success {
		t.Fatal("RingFlood failed in strict mode on page_frag buffers")
	}
	if r.Detail["window_path"] != WindowNeighborIOVA.String() {
		t.Errorf("path = %s, want neighbor IOVA", r.Detail["window_path"])
	}
}

// The honest negative: whole-page LRO buffers leave no type (c) neighbour,
// so strict mode + correct unmap ordering really does close the window —
// exactly the scope limit §5.2.2 states for path (iii).
func TestRingFloodStrictModeBlockedOnWholePageBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("boot study is slow")
	}
	st, err := RunBootStudyOpts(Kernel415, 8, 4242, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	sys, nic, _, err := BootOnceOpts(Kernel415, 4242+9, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	sys.IOMMU.SetMode(iommu.Strict)
	r := RunRingFlood(sys, nic, st)
	if r.Success {
		t.Fatal("RingFlood succeeded despite no open window path")
	}
	if r.Detail["window_path"] != WindowNone.String() {
		t.Errorf("path = %s, want none", r.Detail["window_path"])
	}
}
