package dmafault

// Ablation benchmarks for the design decisions DESIGN.md calls out (D1–D5):
// each sweeps one knob and reports the security/performance trade-off as
// benchmark sub-results. Run with: go test -bench=Ablation -benchmem
//
// The printed custom metrics are the interesting output:
//   window_ms    — how long a device retains access after dma_unmap
//   ns_per_unmap — virtual-time invalidation cost amortized per operation
//   repeat_pct   — §5.3 PFN repeat probability
//   exposure     — type (c) co-location count

import (
	"fmt"
	"testing"

	"dmafault/internal/attacks"
	"dmafault/internal/cminor"
	"dmafault/internal/core"
	"dmafault/internal/corpus"
	"dmafault/internal/dma"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
	"dmafault/internal/sim"
	"dmafault/internal/spade"
)

// BenchmarkAblationD1FlushQueue sweeps the deferred flush-queue timeout: the
// window shrinks linearly with the timeout while the per-unmap cost rises as
// batches shrink.
func BenchmarkAblationD1FlushQueue(b *testing.B) {
	for _, timeoutMS := range []uint64{1, 2, 5, 10} {
		b.Run(fmt.Sprintf("timeout=%dms", timeoutMS), func(b *testing.B) {
			var window sim.Nanos
			var perOp sim.Nanos
			for i := 0; i < b.N; i++ {
				sys, err := core.New(core.WithSeed(1), core.WithIOMMUMode(iommu.Deferred))
				if err != nil {
					b.Fatal(err)
				}
				sys.IOMMU.SetFlushPolicy(sim.Nanos(timeoutMS)*sim.Millisecond, 0)
				if _, err := sys.IOMMU.CreateDomain("nic", 1); err != nil {
					b.Fatal(err)
				}
				buf, _ := sys.Mem.Slab.Kmalloc(0, 2048, "rx")
				va, err := sys.Mapper.MapSingle(1, buf, 2048, dma.FromDevice)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.Bus.Write(1, va, []byte{1}); err != nil {
					b.Fatal(err)
				}
				start := sys.Clock.Now()
				if err := sys.Mapper.UnmapSingle(1, va, 2048, dma.FromDevice); err != nil {
					b.Fatal(err)
				}
				for sys.Clock.Now()-start < 20*sim.Millisecond {
					if err := sys.Bus.Write(1, va, []byte{2}); err != nil {
						break
					}
					sys.Clock.Advance(50 * sim.Microsecond)
				}
				window = sys.Clock.Now() - start
				// Amortized cost over a burst.
				const ops = 512
				t0 := sys.Clock.Now()
				for j := 0; j < ops; j++ {
					v, err := sys.Mapper.MapSingle(1, buf, 2048, dma.FromDevice)
					if err != nil {
						b.Fatal(err)
					}
					if err := sys.Mapper.UnmapSingle(1, v, 2048, dma.FromDevice); err != nil {
						b.Fatal(err)
					}
					sys.Clock.Advance(10 * sim.Microsecond) // inter-packet gap drives timer flushes
				}
				perOp = (sys.Clock.Now() - t0) / ops
			}
			b.ReportMetric(float64(window)/float64(sim.Millisecond), "window_ms")
			b.ReportMetric(float64(perOp), "vns_per_op")
		})
	}
}

// BenchmarkAblationD2PageFrag compares the page_frag allocator against
// bounce buffering for RX-buffer provisioning: co-location exposure vs cost.
func BenchmarkAblationD2PageFrag(b *testing.B) {
	b.Run("page_frag", func(b *testing.B) {
		sys, _ := core.New(core.WithSeed(1), core.WithIOMMUMode(iommu.Strict))
		if _, err := sys.IOMMU.CreateDomain("nic", 1); err != nil {
			b.Fatal(err)
		}
		shared := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := sys.Mem.Frag.Alloc(0, 2048, 64)
			if err != nil {
				b.Fatal(err)
			}
			c, err := sys.Mem.Frag.Alloc(0, 2048, 64)
			if err != nil {
				b.Fatal(err)
			}
			p1, _ := sys.Layout.KVAToPFN(a)
			p2, _ := sys.Layout.KVAToPFN(c + 2047)
			if p1 == p2 {
				shared++
			}
			if err := sys.Mem.Frag.Free(0, a); err != nil {
				b.Fatal(err)
			}
			if err := sys.Mem.Frag.Free(0, c); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(shared)/float64(b.N), "exposure")
	})
	b.Run("bounce", func(b *testing.B) {
		sys, _ := core.New(core.WithSeed(1), core.WithIOMMUMode(iommu.Strict))
		if _, err := sys.IOMMU.CreateDomain("nic", 1); err != nil {
			b.Fatal(err)
		}
		bm := dma.NewBounceMapper(sys.Mem, sys.Mapper)
		buf, _ := sys.Mem.Slab.Kmalloc(0, 2048, "rx")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			va, err := bm.MapSingle(1, buf, 2048, dma.FromDevice)
			if err != nil {
				b.Fatal(err)
			}
			if err := bm.UnmapSingle(1, va, 2048, dma.FromDevice); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(0, "exposure") // dedicated pages: no co-location by construction
	})
}

// BenchmarkAblationD3SharedInfo compares in-line vs out-of-line shared info:
// attack success flips, allocation cost rises slightly.
func BenchmarkAblationD3SharedInfo(b *testing.B) {
	for _, outOfLine := range []bool{false, true} {
		name := "inline"
		opts := []core.Option{core.WithSeed(7), core.WithIOMMUMode(iommu.Deferred)}
		if outOfLine {
			name = "out-of-line"
			opts = append(opts, core.WithOutOfLineSharedInfo())
		}
		b.Run(name, func(b *testing.B) {
			succ := 0
			for i := 0; i < b.N; i++ {
				sys, err := core.New(opts...)
				if err != nil {
					b.Fatal(err)
				}
				nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
				if err != nil {
					b.Fatal(err)
				}
				if attacks.RunPoisonedTX(sys, nic).Success {
					succ++
				}
			}
			b.ReportMetric(float64(succ)/float64(b.N), "attack_success")
		})
	}
}

// BenchmarkAblationD4SpadeDepth sweeps SPADE's backtracking depth on the
// corpus: shallow analysis trades speed for false negatives.
func BenchmarkAblationD4SpadeDepth(b *testing.B) {
	var parsed []*cminor.File
	for _, sf := range corpus.Generate(corpus.Linux50) {
		f, err := cminor.Parse(sf.Name, sf.Content)
		if err != nil {
			b.Fatal(err)
		}
		parsed = append(parsed, f)
	}
	for _, depth := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var vulnerable int
			for i := 0; i < b.N; i++ {
				an := spade.NewAnalyzer(parsed)
				an.MaxDepth = depth
				vulnerable = an.Run().VulnerableCalls
			}
			b.ReportMetric(float64(vulnerable), "vulnerable_calls")
		})
	}
}

// BenchmarkAblationD5BootJitter sweeps the early-boot drift amplitude: the
// §5.3 repeat probability degrades as drift approaches and exceeds the
// driver footprint.
func BenchmarkAblationD5BootJitter(b *testing.B) {
	const trials = 12
	for _, jitter := range []int{64, 256, 512, 1024} {
		b.Run(fmt.Sprintf("jitter=%dpages", jitter), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				st, err := attacks.RunBootStudyOpts(attacks.Kernel50, trials, int64(5000+jitter), attacks.BootOptions{JitterPages: jitter})
				if err != nil {
					b.Fatal(err)
				}
				rate = st.ModalRate
			}
			b.ReportMetric(rate*100, "repeat_pct")
		})
	}
}
