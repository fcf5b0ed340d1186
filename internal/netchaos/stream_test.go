package netchaos

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestDecisionStreamPinned pins the first 4096 decisions of every class
// under a hostile mix of every fault class (seed 11; the plan the
// byzantine-fabric runs in EXPERIMENTS.md use), plus the bit-flip target
// drawn from the same stream. The hashes were
// taken while this package still carried its own copy of the plan engine:
// sharing faultinject's must not move a single decision.
func TestDecisionStreamPinned(t *testing.T) {
	plan, err := ParseSpec("bitflip:0.25,truncate:0.08,http-503:0.08,conn-drop:0.05,partition:0.01")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 11
	const never = "1d05a1711752d58cd7b1a0fc3b865510186533adc6b73b84fba762884acfa52d"
	want := [numClasses]string{
		Latency:   never,
		ConnDrop:  "6d286d34d8e35b00ac7c5850265a87474aea9a0b8f74977a412e1cc4fc9097b7",
		HTTP500:   never,
		HTTP503:   "f00676fd797e355bc830b0a554fb49d3474e6577b7f41b6844fdc25f37c02dfe",
		HTTP429:   never,
		Truncate:  "4b1c80429ca27e966d5c5f30363c74015eaca05cb26fb1375bcc1a81a9366c08",
		BitFlip:   "905ec3f74d922bbcf4d55b5ccfc7eb8729ae7783ade468694c51303c2668c8ff",
		Partition: "ba22bcdf7cfa7012e25bad5ca41527cc18bedaff3e6baf21b6b7dbe6f518a2ef",
	}
	tr := NewTransport(plan, nil)
	for c := Class(0); c < numClasses; c++ {
		h := sha256.New()
		for i := 0; i < 4096; i++ {
			b := byte('0')
			if tr.s.Fire(c) {
				b = '1'
			}
			h.Write([]byte{b})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[c] {
			t.Errorf("%s decisions sha256 = %s, want %s", c, got, want[c])
		}
	}

	f := NewTransport(plan, nil)
	h := sha256.New()
	for i := 0; i < 4096; i++ {
		target := byte(0)
		if f.s.Fire(BitFlip) {
			target = byte(f.flipTarget())
		}
		h.Write([]byte{target})
	}
	const wantTargets = "fc7678bf1ab13f365a1845860643b5e1f084c12abd90f469f8278eff7253e104"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTargets {
		t.Errorf("bit-flip targets sha256 = %s, want %s", got, wantTargets)
	}
}
