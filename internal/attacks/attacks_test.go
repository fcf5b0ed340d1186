package attacks

import (
	"bytes"
	"testing"

	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func bootVictim(t *testing.T, mode iommu.Mode, forwarding bool, model netstack.DriverModel) (*core.System, *netstack.NIC) {
	t.Helper()
	opts := []core.Option{core.WithSeed(1234), core.WithIOMMUMode(mode)}
	if forwarding {
		opts = append(opts, core.WithForwarding())
	}
	sys, err := core.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	nic, err := sys.AddNIC(attackerDev, model, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sys, nic
}

func TestSingleStepBaseline(t *testing.T) {
	sys, _ := bootVictim(t, iommu.Strict, false, netstack.DriverI40E)
	atk, err := NewAttacker(sys, attackerDev)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := InstallBuggyDriver(sys, attackerDev, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := RunSingleStep(sys, atk, blk)
	t.Log("\n" + r.String())
	if !r.Success || r.Escalations != 1 {
		t.Fatalf("single-step failed: %+v", r)
	}
}

func TestSingleStepBlockedWithoutLeak(t *testing.T) {
	// Without the KASLR-breaking scan, the attacker cannot author the chain.
	sys, _ := bootVictim(t, iommu.Strict, false, netstack.DriverI40E)
	atk, _ := NewAttacker(sys, attackerDev)
	if _, err := atk.ChainAddresses(); err == nil {
		t.Fatal("chain addresses available without any leak")
	}
}

func TestBootStudyStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("boot study is slow")
	}
	const trials = 24
	st50, err := RunBootStudyOpts(Kernel50, trials, 5000, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	st415, err := RunBootStudyOpts(Kernel415, trials, 9000, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("5.0:  footprint=%d pages, modal=%.2f, median=%.2f", st50.FootprintPages, st50.ModalRate, st50.MedianRate)
	t.Logf("4.15: footprint=%d pages, modal=%.2f, median=%.2f", st415.FootprintPages, st415.ModalRate, st415.MedianRate)
	// §5.3 shape: the 4.15 (HW LRO, big footprint) repeat rate exceeds the
	// 5.0 one; 4.15 > 95%, 5.0 > 50%.
	if st415.FootprintPages <= st50.FootprintPages {
		t.Errorf("4.15 footprint (%d) not larger than 5.0 (%d)", st415.FootprintPages, st50.FootprintPages)
	}
	if st415.ModalRate <= 0.95 {
		t.Errorf("4.15 modal repeat rate %.2f, want > 0.95", st415.ModalRate)
	}
	if st50.ModalRate <= 0.50 {
		t.Errorf("5.0 modal repeat rate %.2f, want > 0.50", st50.ModalRate)
	}
	if st415.ModalRate < st50.ModalRate {
		t.Errorf("4.15 rate %.2f below 5.0 rate %.2f", st415.ModalRate, st50.ModalRate)
	}
}

func TestRingFloodHitsWhenGuessHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("ring flood campaign is slow")
	}
	st, err := RunBootStudyOpts(Kernel415, 12, 42, BootOptions{JitterPages: BootJitterPages})
	if err != nil {
		t.Fatal(err)
	}
	hits, results, err := RingFloodCampaignOpts(Kernel415, st, 6, 777, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		t.Log("\n" + r.String())
	}
	if hits == 0 {
		t.Fatalf("RingFlood never succeeded over 6 boots (modal rate %.2f)", st.ModalRate)
	}
}

func TestPoisonedTX(t *testing.T) {
	sys, nic := bootVictim(t, iommu.Deferred, false, netstack.DriverI40E)
	r := RunPoisonedTX(sys, nic)
	t.Log("\n" + r.String())
	if !r.Success {
		t.Fatalf("Poisoned TX failed")
	}
	if sys.Kernel.Escalations != 1 {
		t.Fatalf("Escalations = %d", sys.Kernel.Escalations)
	}
}

func TestPoisonedTXWorksInStrictMode(t *testing.T) {
	// The i40e ordering gives the window regardless of IOMMU mode.
	sys, nic := bootVictim(t, iommu.Strict, false, netstack.DriverI40E)
	r := RunPoisonedTX(sys, nic)
	if !r.Success {
		t.Fatalf("Poisoned TX failed under strict mode:\n%s", r.String())
	}
}

func TestForwardThinking(t *testing.T) {
	sys, nic := bootVictim(t, iommu.Deferred, true, netstack.DriverI40E)
	r := RunForwardThinking(sys, nic)
	t.Log("\n" + r.String())
	if !r.Success {
		t.Fatal("Forward Thinking failed")
	}
}

func TestForwardThinkingRequiresForwarding(t *testing.T) {
	sys, nic := bootVictim(t, iommu.Deferred, false, netstack.DriverI40E)
	r := RunForwardThinking(sys, nic)
	if r.Success {
		t.Fatal("Forward Thinking succeeded with forwarding disabled")
	}
}

func TestSurveillanceReadsArbitraryPage(t *testing.T) {
	sys, nic := bootVictim(t, iommu.Deferred, true, netstack.DriverI40E)
	// The victim keeps a secret in a kmalloc'd object the device never had
	// mapped.
	secretKVA, err := sys.Mem.Slab.Kmalloc(1, 64, "vault")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("TOP-SECRET-KEY-MATERIAL-0123456")
	if err := sys.Mem.Write(secretKVA, want); err != nil {
		t.Fatal(err)
	}
	r, got := RunSurveillance(sys, nic, secretKVA, uint32(len(want)))
	t.Log("\n" + r.String())
	if !r.Success {
		t.Fatal("surveillance failed")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("leaked %q, want %q", got, want)
	}
	if r.Detail["clean"] != "true" {
		t.Error("surveillance left traces")
	}
	if sys.Kernel.Escalations != 0 {
		t.Error("surveillance should not escalate")
	}
}

func TestWindowMatrixAllCellsHaveAPath(t *testing.T) {
	cells, err := WindowMatrix(31)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	want := map[string]WindowPath{
		"i40e/deferred":    WindowDriverOrder,
		"i40e/strict":      WindowDriverOrder,
		"correct/deferred": WindowStaleIOTLB,
		"correct/strict":   WindowNeighborIOVA,
	}
	for _, c := range cells {
		key := c.Driver + "/" + c.Mode.String()
		t.Logf("%-20s → %v", key, c.Path)
		if c.Path == WindowNone {
			t.Errorf("%s: no window path — contradicts §5.2", key)
		}
		if w, ok := want[key]; ok && c.Path != w {
			t.Errorf("%s: path %v, want %v", key, c.Path, w)
		}
	}
}

func TestWindowPathStrings(t *testing.T) {
	for _, p := range []WindowPath{WindowNone, WindowDriverOrder, WindowStaleIOTLB, WindowNeighborIOVA} {
		if p.String() == "" {
			t.Errorf("empty string for %d", p)
		}
	}
}
