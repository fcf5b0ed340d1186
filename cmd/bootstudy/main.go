// Command bootstudy regenerates the §5.3 boot-determinism statistics: PFN
// repeat rates over simulated reboots, per kernel version (driver memory
// footprint), with an optional sweep over the early-boot drift amplitude
// (the D5 ablation).
//
// The study loops run on the campaign engine's worker pool (one worker per
// CPU by default; see internal/par) — statistics are seed-identical to the
// historical sequential runs at any worker count.
//
// Usage:
//
//	bootstudy                     # both kernels, 256 reboots each
//	bootstudy -trials 64          # faster
//	bootstudy -sweep              # jitter sweep: repeat rate vs drift
//	bootstudy -workers 1          # pin the pool (reboots stay seed-driven)
package main

import (
	"flag"
	"fmt"
	"runtime"

	"dmafault/internal/attacks"
	"dmafault/internal/cliutil"
)

func main() {
	trials := flag.Int("trials", 256, "reboots per configuration")
	sweep := flag.Bool("sweep", false, "sweep boot jitter amplitude (D5 ablation)")
	queues := flag.Bool("queues", false, "sweep RX queue count (larger machines, §5.3)")
	cf := cliutil.New("bootstudy").WithSeed().WithWorkers().WithLog()
	cf.Parse()
	log := cf.Logger(nil)
	log.Debug("boot study starting", "trials", *trials, "seed", *cf.Seed, "sweep", *sweep, "queues", *queues)
	if *cf.Workers > 0 {
		runtime.GOMAXPROCS(*cf.Workers)
	}

	if *sweep {
		runSweep(cf, *trials, *cf.Seed)
		return
	}
	if *queues {
		runQueueSweep(cf, *trials, *cf.Seed)
		return
	}
	fmt.Printf("%d simulated reboots per kernel (paper §5.3: 256 physical reboots)\n\n", *trials)
	fmt.Printf("%-28s %-16s %-12s %-12s %s\n", "kernel", "footprint", "modal PFN", "repeat", "median")
	for _, v := range []attacks.KernelVersion{attacks.Kernel50, attacks.Kernel415} {
		st, err := attacks.RunBootStudyOpts(v, *trials, *cf.Seed, attacks.BootOptions{JitterPages: attacks.BootJitterPages})
		if err != nil {
			cf.Fatal(err)
		}
		fmt.Printf("%-28s %5d pages     %-12d %5.1f%%      %5.1f%%\n",
			label(v), st.FootprintPages, st.ModalPFN, st.ModalRate*100, st.MedianRate*100)
	}
	fmt.Println("\npaper: \"many PFNs repeat in more than 50% of reboots on kernel 5.0")
	fmt.Println("        and more than 95% on kernel 4.15\"")
}

func label(v attacks.KernelVersion) string {
	if v == attacks.Kernel415 {
		return "4.15 (HW LRO, 64 KiB bufs)"
	}
	return "5.0 (LRO off, 2 KiB bufs)"
}

func runSweep(cf *cliutil.Flags, trials int, seed int64) {
	fmt.Printf("repeat rate vs early-boot drift (%d reboots per point, kernel 5.0)\n\n", trials)
	fmt.Printf("%-16s %-12s %s\n", "jitter (pages)", "modal", "median")
	for _, jitter := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		st, err := attacks.RunBootStudyOpts(attacks.Kernel50, trials, seed+int64(jitter), attacks.BootOptions{JitterPages: jitter})
		if err != nil {
			cf.Fatal(err)
		}
		fmt.Printf("%-16d %5.1f%%      %5.1f%%\n", jitter, st.ModalRate*100, st.MedianRate*100)
	}
	fmt.Println("\nthe attack degrades as drift approaches the driver footprint —")
	fmt.Println("which is why HW LRO (26x footprint) makes RingFlood near-deterministic")
}

// runQueueSweep runs the pool-backed study once per RX queue count.
func runQueueSweep(cf *cliutil.Flags, trials int, seed int64) {
	if trials > 32 {
		trials = 32 // multi-queue boots are heavy
	}
	fmt.Printf("repeat rate vs RX queue count (%d reboots per point, kernel 5.0, heavy drift)\n\n", trials)
	fmt.Printf("%-10s %-14s %-10s\n", "queues", "footprint", "modal")
	for _, q := range []int{1, 2, 4, 8} {
		st, err := attacks.RunBootStudyOpts(attacks.Kernel50, trials, seed, attacks.BootOptions{JitterPages: 2048, Queues: q})
		if err != nil {
			cf.Fatal(err)
		}
		fmt.Printf("%-10d %5d pages    %5.1f%%\n", q, st.FootprintPages, st.ModalRate*100)
	}
	fmt.Println("\n§5.3: \"such attacks have a higher chance of success on larger machines\"")
}
