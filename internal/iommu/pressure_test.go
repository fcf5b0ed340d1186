package iommu

import (
	"testing"

	"dmafault/internal/layout"
)

// The deferred-mode stale window (Fig. 6) is bounded not only by the flush
// timer but by IOTLB capacity: other translation traffic can evict the stale
// entry early. This matters to attack reliability — a busy NIC may lose its
// window before the timer fires.
func TestStaleEntryEvictedUnderIOTLBPressure(t *testing.T) {
	u, _, _ := newUnit(t, Deferred)
	target := IOVA(IOVABase)
	if err := u.Map(nicDev, target, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, target, true); err != nil { // prime
		t.Fatal(err)
	}
	if err := u.Unmap(nicDev, target); err != nil {
		t.Fatal(err)
	}
	// Stale access works now.
	if _, err := u.Translate(nicDev, target, true); err != nil {
		t.Fatalf("stale access blocked prematurely: %v", err)
	}
	// Pressure: translate through more distinct pages than the IOTLB holds.
	for i := 0; i < DefaultIOTLBCapacity+8; i++ {
		v := IOVA(IOVABase) + IOVA((i+1)*layout.PageSize)
		if err := u.Map(nicDev, v, layout.PFN(100+i), PermRead); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Translate(nicDev, v, false); err != nil {
			t.Fatal(err)
		}
	}
	// The stale entry has been evicted: the window closed early, well
	// before the 10 ms timer.
	if _, err := u.Translate(nicDev, target, true); err == nil {
		t.Fatal("stale access survived IOTLB pressure beyond capacity")
	}
}

// Conversely, a device that keeps re-touching its stale entry keeps it warm
// under light pressure (FIFO keeps re-inserted? No — FIFO does not refresh;
// the entry survives only while fewer than capacity other entries arrive).
func TestStaleEntrySurvivesLightTraffic(t *testing.T) {
	u, _, _ := newUnit(t, Deferred)
	target := IOVA(IOVABase)
	if err := u.Map(nicDev, target, 7, PermBidir); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Translate(nicDev, target, true); err != nil {
		t.Fatal(err)
	}
	if err := u.Unmap(nicDev, target); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultIOTLBCapacity/2; i++ {
		v := IOVA(IOVABase) + IOVA((i+1)*layout.PageSize)
		if err := u.Map(nicDev, v, layout.PFN(100+i), PermRead); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Translate(nicDev, v, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := u.Translate(nicDev, target, true); err != nil {
		t.Fatalf("stale access lost under light traffic: %v", err)
	}
	if u.Stats().StaleHits < 1 {
		t.Error("stale hits not counted")
	}
}
