package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadScenarios: scenario sets arrive from files, flags and /v1
// submissions, so LoadScenarios must not panic on any input. Every set it
// accepts must keep its identity through SaveScenarios→LoadScenarios: the
// same SetHash (what journals bind to) and the same ScenarioDigest per
// entry (what the result cache keys by).
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

// FuzzLoadJournal: journals are read back after crashes, so the record
// decoder must survive any payload. Each input is a newline-separated list
// of record payloads, framed after a valid header. The decoder must not
// panic; a journal it accepts must restore only indexes inside the set,
// the same ones through LoadJournal and ScanJournal, and count exactly the
// lease records it holds.
func FuzzLoadJournal(f *testing.F) {
	set := journalSet()[:4]
	path := filepath.Join(f.TempDir(), "seed.jsonl")
	writeMixedJournal(f, path, set)
	payloads := journalPayloads(f, path)
	f.Add(bytes.Join(payloads, []byte{'\n'}))
	for _, p := range payloads {
		f.Add(p)
	}
	f.Add([]byte(`{"index":1}`))
	f.Add([]byte(`{"index":-1,"result":{}}`))
	f.Add([]byte(`{"lease":{"event":"granted","shard":1,"shard_size":3}}` + "\n" + `{"lease":{"event":"expired","shard_size":2}}`))
	path = filepath.Join(f.TempDir(), "fuzz.jsonl") // each open truncates it
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := OpenJournal(path, set, false)
		if err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		if len(data) > 0 {
			recs = bytes.Split(data, []byte{'\n'})
		}
		for _, rec := range recs {
			if _, err := j.log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		restored, lerr := LoadJournal(path, set)
		st, serr := ScanJournal(path)
		if (lerr == nil) != (serr == nil) {
			t.Fatalf("LoadJournal err=%v, ScanJournal err=%v", lerr, serr)
		}
		if lerr != nil {
			return
		}
		if len(restored) != len(st.Restored) {
			t.Fatalf("LoadJournal restored %d, ScanJournal %d", len(restored), len(st.Restored))
		}
		for i := range restored {
			if i < 0 || i >= len(set) || st.Restored[i] == nil {
				t.Fatalf("restored index %d of a %d-scenario set", i, len(set))
			}
		}
		leases := 0
		for _, rec := range recs {
			var r struct{ Lease *json.RawMessage }
			if json.Unmarshal(rec, &r) == nil && r.Lease != nil && string(*r.Lease) != "null" {
				leases++
			}
		}
		if got := st.Granted + st.Expired + st.Released; got != leases {
			t.Fatalf("%d lease events counted, journal holds %d lease records", got, leases)
		}
	})
}
