// Memory dump: the §3.1 headline consequence, built from the §5.5
// surveillance primitive — a malicious NIC walks arbitrary physical pages by
// forging frags[] entries in forwarded packets, and reassembles kernel
// memory it was never given. No code injection, no crash, no trace.
package main

import (
	"fmt"
	"log"

	"dmafault/internal/attacks"
	"dmafault/internal/core"
	"dmafault/internal/iommu"
	"dmafault/internal/netstack"
)

func main() {
	sys, err := core.New(core.WithSeed(4242), core.WithIOMMUMode(iommu.Deferred), core.WithForwarding())
	if err != nil {
		log.Fatal(err)
	}
	nic, err := sys.AddNIC(1, netstack.DriverI40E, 0)
	if err != nil {
		log.Fatal(err)
	}

	// The victim kernel holds secrets across a few pages.
	base, err := sys.Mem.Pages.AllocPages(1, 2)
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte("BEGIN RSA PRIVATE KEY ... (you get the idea) ... END RSA PRIVATE KEY")
	if err := sys.Mem.Write(sys.Layout.PFNToKVA(base)+100, secret); err != nil {
		log.Fatal(err)
	}

	r, dump := attacks.RunMemoryDump(sys, nic, base, 4)
	fmt.Print(r.String())
	if !r.Success {
		return
	}
	fmt.Printf("\nexfiltrated %d bytes; bytes 100..%d of page 0:\n  %q\n",
		len(dump), 100+len(secret), dump[100:100+len(secret)])
	fmt.Printf("kernel stability: %d frag release errors, %d escalations — the victim noticed nothing\n",
		sys.Net.Stats().FragReleaseErrors, sys.Kernel.Escalations)
}
