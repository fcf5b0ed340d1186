package campaign

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoadScenarios: scenario sets arrive from files, flags and /v1
// submissions, so LoadScenarios must not panic on any input. Every set it
// accepts must keep its identity through SaveScenarios→LoadScenarios: the
// same SetHash (what journals and the fabric state log bind to) and the
// same ScenarioDigest per entry (what the result cache keys by).
func FuzzLoadScenarios(f *testing.F) {
	for _, set := range [][]Scenario{
		MixedPreset(8, 2021),
		FuzzPreset(4, 7),
		LadderPreset(4, 1),
		RingFloodPreset(2, 3),
		BootStudyPreset(2, 5),
		{{Kind: KindPageSpray, Seed: -1, SprayBlocks: 3, SprayOrder: -1,
			FaultSpec: "dma-corrupt:0.01,alloc-fail@3", TimeoutMS: 5}},
	} {
		var buf bytes.Buffer
		if err := SaveScenarios(&buf, set); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add([]byte(`{"scenarios": ` + buf.String() + `}`))
	}
	golden, err := os.ReadFile("testdata/summary.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`[{"kind":"dkasan","id":"x","trials":-3}]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		scs, err := LoadScenarios(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveScenarios(&buf, scs); err != nil {
			t.Fatalf("SaveScenarios of an accepted set: %v", err)
		}
		again, err := LoadScenarios(&buf)
		if err != nil {
			t.Fatalf("reloading a saved set: %v\n%s", err, buf.Bytes())
		}
		if len(again) != len(scs) {
			t.Fatalf("round trip changed the set size: %d -> %d", len(scs), len(again))
		}
		if a, b := SetHash(scs), SetHash(again); a != b {
			t.Fatalf("SetHash changed across the round trip: %s -> %s", a, b)
		}
		for i := range scs {
			if ScenarioDigest(scs[i]) != ScenarioDigest(again[i]) {
				t.Fatalf("scenario %d digest changed across the round trip:\n%+v\nvs\n%+v", i, scs[i], again[i])
			}
		}
	})
}
