package kexec

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"dmafault/internal/layout"
	"dmafault/internal/mem"
)

// TestTextImagePinned pins the synthesized image byte for byte: the digests
// are of the image that rand.Read filler and a byte-wise pivot scrub
// produce, so any drift in the generator shows up here before it shows up
// as moved gadgets.
func TestTextImagePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{
		{0, "0911ae0135d1332c8fdb3f70b64abea7c87474099cb3e8e73415f7896d94cd13"},
		{2021, "bd9421533a1e9496adfb446508430d891e74c30843d43955b2dc858b445cb6ec"},
		{-7, "b926257dcd4cb6dcc17657286440b9a5119a328d893be13a5d1e86c884688a20"},
	} {
		sum := sha256.Sum256(NewText(layout.TextStart, tc.seed).image())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("seed %d: image sha256 %s, want %s", tc.seed, got, tc.want)
		}
	}
}

// TestFindGadgetMatchesScan checks the direct lookup against the full
// inventory: for every kind, FindGadget returns the first gadget of that
// kind in Scan order.
func TestFindGadgetMatchesScan(t *testing.T) {
	kinds := []GadgetKind{GadgetPivot, GadgetPopRDI, GadgetPopRAX, GadgetPopRSI, GadgetMovRDIRAX, GadgetHalt}
	for seed := int64(0); seed < 32; seed++ {
		tx := NewText(layout.TextStart, seed*7919)
		first := map[GadgetKind]Gadget{}
		for _, g := range tx.Scan() {
			if _, ok := first[g.Kind]; !ok {
				first[g.Kind] = g
			}
		}
		for _, k := range kinds {
			got, ok := tx.FindGadget(k)
			want, wantOK := first[k]
			if ok != wantOK || got != want {
				t.Errorf("seed %d %v: FindGadget = %+v, %v; Scan's first = %+v, %v", seed*7919, k, got, ok, want, wantOK)
			}
		}
	}
	if _, ok := NewText(layout.TextStart, 1).FindGadget(GadgetHalt + 1); ok {
		t.Error("unknown gadget kind found")
	}
}

// TestNewKernelDefersText guards lazy synthesis: building the kernel model
// must not build the 16 MiB image.
func TestNewKernelDefersText(t *testing.T) {
	l := layout.New(layout.Config{KASLR: true, Seed: 3, PhysBytes: 32 << 20})
	m, err := mem.New(mem.Config{Layout: l, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		NewKernel(m, int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("NewKernel allocates %d bytes, want < 64 KiB", per)
	}
}

func BenchmarkTextSynthesis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewText(layout.TextStart, int64(i)).image()
	}
}

// BenchmarkExtractBuildOffsets is the offline gadget analysis of one fresh
// build: synthesizing its image plus the four gadget lookups.
func BenchmarkExtractBuildOffsets(b *testing.B) {
	k, _ := newKernel(b, 5)
	symbols := k.Mem().Layout().Symbols()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExtractBuildOffsets(NewText(layout.TextStart, int64(i)), symbols); err != nil {
			b.Fatal(err)
		}
	}
}
