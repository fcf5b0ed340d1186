// Command experiments regenerates the paper's tables and figures on the
// simulated substrates.
//
// Usage:
//
//	experiments              # run everything at paper scale (256 reboots)
//	experiments -quick       # reduced scale for smoke runs
//	experiments -run F7      # one experiment
//	experiments -out out.txt # also write the combined artifact to a file
package main

import (
	"flag"
	"fmt"
	"os"

	"dmafault/internal/cliutil"
	"dmafault/internal/experiments"
)

func main() {
	id := flag.String("run", "", "experiment ID (T1,T2,F1..F9,S2.4,S5.2.1,S5.3,S6,S7); empty = all")
	quick := flag.Bool("quick", false, "reduced trial counts")
	trials := flag.Int("trials", 0, "override boot-study trial count")
	cf := cliutil.New("experiments").WithOut().WithLog()
	cf.Parse()
	log := cf.Logger(nil)
	log.Debug("experiments starting", "run", *id, "quick", *quick)

	cfg := experiments.DefaultConfig
	if *quick {
		cfg = experiments.QuickConfig
	}
	if *trials > 0 {
		cfg.BootTrials = *trials
	}

	var outcomes []*experiments.Outcome
	if *id != "" {
		o, err := experiments.Run(*id, cfg)
		if err != nil {
			cf.Fatal(err)
		}
		outcomes = []*experiments.Outcome{o}
	} else {
		var err error
		outcomes, err = experiments.All(cfg)
		if err != nil {
			cf.Fatal(err)
		}
	}
	report, failed := experiments.Report(outcomes)
	fmt.Print(report)
	if err := cf.WriteOut([]byte(report)); err != nil {
		cf.Fatal(err)
	}
	if failed > 0 {
		os.Exit(2)
	}
}
