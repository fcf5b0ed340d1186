package attacks

import (
	"fmt"
	"math/rand"
	"sort"

	"dmafault/internal/core"
	"dmafault/internal/faultinject"
	"dmafault/internal/iommu"
	"dmafault/internal/layout"
	"dmafault/internal/netstack"
	"dmafault/internal/par"
)

// Boot determinism study (§5.3). "At every reboot, the same set of commands
// is executed in the same order, initiating the same kernel modules and
// starting the same processes. While the pages each module receives may vary
// in a multi-core environment due to timing issues, we do not expect the
// drift to be too large." The study boots the simulated machine many times
// and measures how often the RX-ring page frames repeat.

// KernelVersion selects the driver memory-footprint regime of §5.3.
type KernelVersion string

const (
	// Kernel50 models Linux 5.0: mlx5 HW LRO disabled, 2 KiB per RX entry
	// (64 MiB per port on the paper's 32-core testbed).
	Kernel50 KernelVersion = "5.0"
	// Kernel415 models Linux 4.15: HW LRO enabled, 64 KiB per RX entry
	// (2 GiB per port) — the version with >95% PFN repeat rates.
	Kernel415 KernelVersion = "4.15"
)

// driverFor maps the kernel version to its mlx5 driver model.
func driverFor(v KernelVersion) netstack.DriverModel {
	if v == Kernel415 {
		return netstack.DriverMlx5LRO
	}
	return netstack.DriverMlx5
}

// BootJitterPages bounds the early-boot allocation drift between reboots
// ("we do not expect the drift to be too large"): up to 2 MiB of transient
// boot-time allocations survive or not depending on timing. It is the
// default amplitude; the D5 ablation and campaign scenarios override it.
const BootJitterPages = 512

// bootFixedPages is the deterministic early-boot footprint (modules, initrd
// processing) allocated identically on every boot.
const bootFixedPages = 200

// attackerDev is the requester ID the malicious NIC uses in every scenario.
const attackerDev iommu.DeviceID = 1

// BootRecord is the outcome of one simulated boot: which frames back the RX
// ring and where buffers start within them.
type BootRecord struct {
	Seed int64
	// Starts lists, in ring order, each frame in which an RX buffer starts,
	// with the in-page offset of the first buffer starting there.
	Starts []BufStart
	// CoveredPages is the total number of frames the ring's buffers span —
	// the driver memory footprint of §5.3.
	CoveredPages int
}

// BufStart is a ring frame and the in-page offset of its first RX buffer.
type BufStart struct {
	PFN    layout.PFN
	Offset uint64
}

// frameSet is a set of frames of one boot's memory: 128 MiB is 4 KiB of
// bits.
type frameSet []uint64

func newFrameSet(frames int) frameSet { return make(frameSet, (frames+63)/64) }

// add inserts the frame and reports whether it was new.
func (s frameSet) add(p layout.PFN) bool {
	w, bit := p/64, uint64(1)<<(p%64)
	if s[w]&bit != 0 {
		return false
	}
	s[w] |= bit
	return true
}

// BootOptions bundles the knobs of a single simulated boot. A zero
// JitterPages means no drift; pass BootJitterPages for the classic study
// amplitude.
type BootOptions struct {
	// MemBytes is the simulated physical memory size (0 auto-sizes to the
	// ring footprint).
	MemBytes uint64
	// JitterPages is the early-boot allocation drift amplitude (D5 knob).
	JitterPages int
	// Queues is the RX ring count (0 means 1): one per core (§5.2.2), and
	// the footprint scales with it (§5.3). The record covers every queue.
	Queues int
	// FaultPlan, when non-nil, boots the machine with deterministic fault
	// injection armed (internal/faultinject) — DMA corruption, IOMMU
	// stalls, RX descriptor loss, and allocator pressure all become
	// possible, and errors from injected allocator pressure wrap
	// faultinject.ErrTransient so campaign retry can classify them.
	FaultPlan *faultinject.Plan
}

// autoMemBytes sizes the memory of a boot that did not fix it: 128 MiB,
// doubled until it holds the RX rings twice over plus 64 MiB. HW-LRO rings
// are 32 MiB each, so 4.15 boots grow with the queue count.
func autoMemBytes(model netstack.DriverModel, queues int) uint64 {
	memBytes := uint64(128 << 20)
	need := uint64(queues) * uint64(model.RingSize) * layout.PageAlignUp(netstack.TruesizeFor(model.RXBufferSize))
	for memBytes < 2*need+(64<<20) {
		memBytes *= 2
	}
	return memBytes
}

// BootOnceOpts boots a machine with the version's driver and returns the
// system (for attack continuation), RX queue 0's NIC and the ring record.
func BootOnceOpts(version KernelVersion, seed int64, o BootOptions) (*core.System, *netstack.NIC, *BootRecord, error) {
	memBytes, jitterPages, queues := o.MemBytes, o.JitterPages, o.Queues
	if queues <= 0 {
		queues = 1
	}
	model := driverFor(version)
	if memBytes == 0 {
		memBytes = autoMemBytes(model, queues)
	}
	sys, err := core.New(core.WithSeed(seed), core.WithIOMMUMode(iommu.Deferred), core.WithCPUs(max(queues, 2)), core.WithMemBytes(memBytes), core.WithFaultPlan(o.FaultPlan))
	if err != nil {
		return nil, nil, nil, err
	}
	// Early boot: fixed footprint + timing jitter. The jitter pages stay
	// allocated (boot-time caches), shifting everything after them.
	rng := rand.New(rand.NewSource(seed ^ 0xb007))
	jitter := 0
	if jitterPages > 0 {
		jitter = rng.Intn(jitterPages)
	}
	for i := 0; i < bootFixedPages+jitter; i++ {
		if _, err := sys.Mem.Pages.AllocPages(0, 0); err != nil {
			return nil, nil, nil, fmt.Errorf("attacks: boot allocations: %w", err)
		}
	}
	rec := &BootRecord{Seed: seed}
	started, covered := newFrameSet(sys.Mem.NumPages()), newFrameSet(sys.Mem.NumPages())
	var first *netstack.NIC
	for q := 0; q < queues; q++ {
		nic, err := sys.AddNIC(attackerDev+iommu.DeviceID(q), model, q)
		if err != nil {
			return nil, nil, nil, err
		}
		if first == nil {
			first = nic
		}
		for _, d := range nic.RXRing() {
			if !d.Ready {
				// Injected RX descriptor loss leaves slots unposted; an
				// empty descriptor has no frame to record.
				continue
			}
			fp, _ := sys.Layout.KVAToPFN(d.Data)
			lp, _ := sys.Layout.KVAToPFN(d.Data + layout.Addr(netstack.TruesizeFor(d.Cap)-1))
			if started.add(fp) {
				rec.Starts = append(rec.Starts, BufStart{fp, layout.PageOffsetOf(d.Data)})
			}
			for p := fp; p <= lp; p++ {
				if covered.add(p) {
					rec.CoveredPages++
				}
			}
		}
	}
	return sys, first, rec, nil
}

// BootStudy aggregates many boots.
type BootStudy struct {
	Version KernelVersion
	Trials  int
	// Queues is the RX ring count each boot used (1 for the classic study).
	Queues int
	// Freq counts, per PFN, the boots whose ring included it.
	Freq map[layout.PFN]int
	// ModalPFN is the most-repeated ring frame; ModalRate its frequency.
	ModalPFN  layout.PFN
	ModalRate float64
	// ModalOffset is the buffer start offset on the modal frame in the
	// reference (first) boot — what the offline attacker memorizes.
	ModalOffset uint64
	// MedianRate is the median repeat frequency over the reference boot's
	// frames: the "many PFNs repeat in more than X% of reboots" statistic.
	MedianRate float64
	// FootprintPages is the reference boot's ring footprint.
	FootprintPages int
}

// RunBootStudyQueues is RunBootStudyOpts with only the drift amplitude and
// the RX-queue count set. It is kept for the perfbench module, which calls
// it; code in this module calls RunBootStudyOpts.
func RunBootStudyQueues(version KernelVersion, trials int, seedBase int64, jitterPages, queues int) (*BootStudy, error) {
	return RunBootStudyOpts(version, trials, seedBase, BootOptions{JitterPages: jitterPages, Queues: queues})
}

// RunBootStudyOpts simulates `trials` reboots from seedBase on and computes
// the §5.3 statistics. Boots run on the campaign engine's worker pool
// (internal/par): each reboot is an isolated machine fully determined by its
// seed, and records merge in trial order, so the statistics are identical at
// any worker count. Under a fault plan some boots may fail with transient
// injected errors (surfaced with par's deterministic lowest-trial error).
func RunBootStudyOpts(version KernelVersion, trials int, seedBase int64, o BootOptions) (*BootStudy, error) {
	queues := o.Queues
	if queues <= 0 {
		queues = 1
	}
	st := &BootStudy{Version: version, Trials: trials, Queues: queues, Freq: make(map[layout.PFN]int)}
	records, err := par.Map(trials, 0, func(i int) (*BootRecord, error) {
		_, _, rec, err := BootOnceOpts(version, seedBase+int64(i), o)
		return rec, err
	})
	if err != nil {
		return nil, err
	}
	reference := records[0]
	if len(reference.Starts) == 0 {
		// Possible only under injected RX descriptor loss: the reference
		// boot posted nothing, so there is no profile to build.
		return nil, fmt.Errorf("attacks: reference boot posted no RX buffers")
	}
	st.FootprintPages = reference.CoveredPages
	for _, rec := range records {
		for _, s := range rec.Starts {
			st.Freq[s.PFN]++
		}
	}
	// Modal frame: prefer frames where a buffer actually starts in the
	// reference boot (the attacker needs the buffer offset too); the lowest
	// frame wins a tie.
	bestCount := -1
	for _, s := range reference.Starts {
		c := st.Freq[s.PFN]
		if c > bestCount || (c == bestCount && s.PFN < st.ModalPFN) {
			bestCount = c
			st.ModalPFN = s.PFN
			st.ModalOffset = s.Offset
		}
	}
	st.ModalRate = float64(bestCount) / float64(trials)
	rates := make([]float64, 0, len(reference.Starts))
	for _, s := range reference.Starts {
		rates = append(rates, float64(st.Freq[s.PFN])/float64(trials))
	}
	sort.Float64s(rates)
	st.MedianRate = rates[len(rates)/2]
	return st, nil
}
