package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// median is the middle value of xs, or the mean of the two middle values
// (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// settle collects garbage and returns freed memory to the OS, so each
// measured phase starts from the same heap and resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) so
// peakRSS reports what follows alone. Where /proc is unavailable the
// counter keeps the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the process's peak resident set in bytes.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024
		}
	}
	return 0
}

// Runtime metric names read around every measured phase and layer call.
const (
	mAllocBytes = "/gc/heap/allocs:bytes" // the counter behind MemStats.TotalAlloc
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
)

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: mAllocBytes}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

type runtimeSnap struct {
	gcCycles      uint64
	gcCPU, allCPU float64
}

type runtimeDelta struct {
	gcCycles      uint64
	gcCPU, allCPU float64
	heapPeak      uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeSnap{gcCycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

func (r runtimeSnap) since(before runtimeSnap) runtimeDelta {
	return runtimeDelta{
		gcCycles: r.gcCycles - before.gcCycles,
		gcCPU:    r.gcCPU - before.gcCPU,
		allCPU:   r.allCPU - before.allCPU,
	}
}

// heapSampler polls the live heap size to find its peak during a phase.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeapLive}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it, and returns the peak heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
