package faultinject

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestDecisionStreamPinned pins the first 4096 decisions of every class for
// a plan with a non-zero seed, salt and scope, plus the corruption pattern
// InjectDeviceWrite draws from the same stream. The hashes were taken
// before internal/netchaos shared this engine; a change to the seed mix,
// the per-class stream or the counters shows up here.
func TestDecisionStreamPinned(t *testing.T) {
	p, err := ParseSpec("dma-corrupt:0.3,dma-drop:0.05@7,iommu-stall:0.5,iommu-fault:0.01," +
		"ring-drop:0.2@1+100,alloc-fail:0.1,scenario-panic:0.02,scenario-stall@3")
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Salt = 2021, 3
	want := map[Class]string{
		DMACorrupt:    "ef992b56bd2f4f072a1801fc71d2647969f4c33c3585a960798068f3a8ec9343",
		DMADrop:       "6b0a360b5f93bae3254322cd09bc7af3ac1908e3b2a694822e958a6f2c50fb0d",
		IOMMUStall:    "62c000b49746dc7e757f2db3e7ba54a881668ff0ac4165f0860d513735683d4b",
		IOMMUFault:    "6f459c46c9fa4804dd5e64e9b07ecbb193a0ad38106383754a20a05fbeaa9c2b",
		RingDrop:      "f8e68fc40581eac0d040679ad6d699a5aeb03cf70583386bb095c0ea2799f6d2",
		AllocFail:     "7610655a03beee88ca99a86b76604ac86488249d23637dbc8c5ce095e3590a75",
		ScenarioPanic: "28b7cb2404d37bf43fc6e97e9a7f08ae9a0911ca1f8beb9b47090d545ce75b38",
		ScenarioStall: "d722cfa96b33108991932d639a40c843a8498174617271c7a205e11b2d24b3c9",
	}
	in := New(p, 99)
	for _, c := range Classes() {
		h := sha256.New()
		for i := 0; i < 4096; i++ {
			b := byte('0')
			if in.Fire(c) {
				b = '1'
			}
			h.Write([]byte{b})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[c] {
			t.Errorf("%s decisions sha256 = %s, want %s", c, got, want[c])
		}
	}

	w := New(p, 99)
	h := sha256.New()
	for i := 0; i < 4096; i++ {
		buf := make([]byte, 64)
		if w.InjectDeviceWrite(1, 0x1000, buf) {
			h.Write([]byte{'d'})
		}
		h.Write(buf)
	}
	const wantWrites = "cb8d36aa6ca3578e7a41d3de25d7258dae76fc51716b9981fd7eeb0de8baeced"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantWrites {
		t.Errorf("device-write corruption sha256 = %s, want %s", got, wantWrites)
	}
}

// TestFireAllocatesNothing: deciding an opportunity allocates nothing, on
// an armed injector or a nil one.
func TestFireAllocatesNothing(t *testing.T) {
	in := New(plan(Rule{Class: DMACorrupt, Rate: 0.5}, Rule{Class: AllocFail, Points: []uint64{3}}), 7)
	var none *Injector
	allocs := testing.AllocsPerRun(1000, func() {
		in.Fire(DMACorrupt)
		in.Fire(AllocFail)
		none.Fire(DMACorrupt)
	})
	if allocs != 0 {
		t.Fatalf("Fire allocated %v times per call", allocs)
	}
}
