package kexec_test

import (
	"runtime"
	"sync"
	"testing"

	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/kexec"
	"dmafault/internal/layout"
	"dmafault/internal/mem"
	"dmafault/internal/netstack"
)

// TestNewKernelDefersText guards the per-boot cost of kernel text: building
// the kernel model builds no text page, and a whole Poisoned TX attempt —
// KASLR break, payload, hijacked callback, pivot and ROP chain — builds at
// most 8 of the image's 4096 pages.
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
		kexec.NewKernel(m, int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Errorf("NewKernel allocates %d bytes, want < 64 KiB", per)
	}

	sys, err := core.New(core.WithSeed(2021))
	if err != nil {
		t.Fatal(err)
	}
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := sys.Kernel.Text().ResidentPages(); n != 0 {
		t.Errorf("boot built %d text pages before any kernel code ran", n)
	}
	if r := attacks.RunPoisonedTX(sys, nic); !r.Success {
		t.Fatalf("Poisoned TX failed:\n%s", r)
	}
	if n := sys.Kernel.Text().ResidentPages(); n == 0 || n > 8 {
		t.Errorf("Poisoned TX built %d text pages, want 1..8", n)
	}
}

// TestExtractBuildOffsetsConcurrent: goroutines booting machines of one
// build at once share a single offline scan and read identical offsets;
// once it is done, the analysis costs no scan and almost no allocation.
func TestExtractBuildOffsetsConcurrent(t *testing.T) {
	const goroutines = 16
	build := int64(0x5eed) // a build no other test scans first
	offsets := make([]kexec.BuildOffsets, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := layout.New(layout.Config{KASLR: true, Seed: int64(g), PhysBytes: 32 << 20})
			m, err := mem.New(mem.Config{Layout: l, CPUs: 1})
			if err != nil {
				t.Error(err)
				return
			}
			k := kexec.NewKernel(m, build)
			if offsets[g], err = kexec.ExtractBuildOffsets(k.Text(), l.Symbols()); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if offsets[g] != offsets[0] {
			t.Errorf("goroutine %d read %+v, goroutine 0 read %+v", g, offsets[g], offsets[0])
		}
	}
	l := layout.New(layout.Config{PhysBytes: 16 << 20})
	tx := kexec.NewText(layout.TextStart, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := kexec.ExtractBuildOffsets(tx, l.Symbols()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
		t.Errorf("memoised ExtractBuildOffsets allocated %d bytes, want < 4 KiB", n)
	}
}
