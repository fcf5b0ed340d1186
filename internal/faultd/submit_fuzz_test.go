package faultd

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"dmafault/internal/campaign"
)

// FuzzSubmit: POST /v1/campaigns bodies are untrusted bytes, so the decode
// and resolution every submission passes before admission control (as
// handleSubmit does them) must not panic on any input. An accepted request
// names a non-empty scenario set or a fuzz budget, never more than
// MaxScenarios of either.
func FuzzSubmit(f *testing.F) {
	for _, req := range []Request{
		{Name: "smoke", Workers: 2, Preset: "ladder", N: 4, Seed: 2021},
		{Seed: 7, Fuzz: &FuzzSpec{Attempts: 64, Batch: 16, Minimize: -1}},
		{Workers: 2, Scenarios: []campaign.Scenario{panicScenario(), {Kind: campaign.KindWindowLadder, Seed: 42}}},
		{Scenarios: campaign.MixedPreset(8, 2021)},
		{Preset: "ringflood", N: MaxScenarios + 1},
		{Fuzz: &FuzzSpec{Attempts: MaxScenarios + 1}},
	} {
		b, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(stallBody(3)))
	golden, err := os.ReadFile("../campaign/testdata/summary.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"preset":"ladder","scenarios":[{"kind":"dkasan"}]}`))
	f.Add([]byte(`{"preset":"nope","n":-1}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if json.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil {
			return
		}
		scs, err := resolveScenarios(&req)
		if err != nil {
			return
		}
		if req.Fuzz != nil {
			if scs != nil || req.Fuzz.Attempts > MaxScenarios {
				t.Fatalf("accepted fuzz request with %d scenarios and %d attempts", len(scs), req.Fuzz.Attempts)
			}
			return
		}
		if len(scs) == 0 || len(scs) > MaxScenarios {
			t.Fatalf("accepted a set of %d scenarios (cap %d)", len(scs), MaxScenarios)
		}
	})
}
