// Command attack executes the paper's DMA code-injection attacks against a
// freshly booted simulated machine and prints the step trace.
//
// Attacks: singlestep, ringflood, poisonedtx, forward, surveillance.
package main

import (
	"flag"
	"fmt"
	"os"

	"dmafault/internal/attacks"
	"dmafault/internal/cliutil"
	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func main() {
	name := flag.String("attack", "poisonedtx", "singlestep | ringflood | poisonedtx | forward | surveillance | dos")
	trials := flag.Int("trials", 16, "offline boot-study trials (ringflood)")
	traceN := flag.Int("trace", 0, "print the last N machine events after the attack (0 = off)")
	cf := cliutil.New("attack").WithSeed().WithStrict().WithLog()
	cf.Parse()
	log := cf.Logger(nil)
	log.Debug("attack starting", "attack", *name, "seed", *cf.Seed, "mode", cf.Mode().String())

	r, err := run(*name, *cf.Seed, cf.Mode(), *trials, *traceN)
	if err != nil {
		cf.Fatal(err)
	}
	fmt.Print(r.String())
	if !r.Success {
		os.Exit(2)
	}
}

func run(name string, seed int64, mode iommu.Mode, trials, traceN int) (*attacks.Result, error) {
	switch name {
	case "ringflood":
		study, err := attacks.RunBootStudyOpts(attacks.Kernel415, trials, seed, attacks.BootOptions{JitterPages: attacks.BootJitterPages})
		if err != nil {
			return nil, err
		}
		sys, nic, _, err := attacks.BootOnceOpts(attacks.Kernel415, seed+int64(trials)+1, attacks.BootOptions{JitterPages: attacks.BootJitterPages})
		if err != nil {
			return nil, err
		}
		return attacks.RunRingFlood(sys, nic, study), nil
	case "singlestep", "dos":
		sys, err := core.New(core.WithSeed(seed), core.WithIOMMUMode(mode))
		if err != nil {
			return nil, err
		}
		if _, err := sys.AddNIC(1, netstack.DriverI40E, 0); err != nil {
			return nil, err
		}
		atk, err := attacks.NewAttacker(sys, 1)
		if err != nil {
			return nil, err
		}
		if name == "dos" {
			return attacks.RunFreelistDoS(sys, atk), nil
		}
		blk, err := attacks.InstallBuggyDriver(sys, 1, 0)
		if err != nil {
			return nil, err
		}
		return attacks.RunSingleStep(sys, atk, blk), nil
	case "poisonedtx", "forward", "surveillance":
		opts := []core.Option{core.WithSeed(seed), core.WithIOMMUMode(mode)}
		if name != "poisonedtx" {
			opts = append(opts, core.WithForwarding())
		}
		sys, err := core.New(opts...)
		if err != nil {
			return nil, err
		}
		var log interface{ Render(int) string }
		if traceN > 0 {
			log = sys.EnableTracing(0)
		}
		nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
		if err != nil {
			return nil, err
		}
		defer func() {
			if log != nil {
				fmt.Print(log.Render(traceN))
			}
		}()
		switch name {
		case "poisonedtx":
			return attacks.RunPoisonedTX(sys, nic), nil
		case "forward":
			return attacks.RunForwardThinking(sys, nic), nil
		default:
			secret, err := sys.Mem.Slab.Kmalloc(1, 64, "vault")
			if err != nil {
				return nil, err
			}
			if err := sys.Mem.Write(secret, []byte("kernel secret bytes")); err != nil {
				return nil, err
			}
			r, got := attacks.RunSurveillance(sys, nic, secret, 19)
			r.Detail["leaked"] = fmt.Sprintf("%q", got)
			return r, nil
		}
	default:
		return nil, fmt.Errorf("unknown attack %q", name)
	}
}
