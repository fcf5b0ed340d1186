package campaign

import (
	"bytes"
	"encoding/json"
	"io"
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
		if len(restored) != len(st.Restored) || st.Done != len(st.Restored) {
			t.Fatalf("LoadJournal restored %d, ScanJournal %d (done %d)", len(restored), len(st.Restored), st.Done)
		}
		// The recovery scan decodes no result, so it accepts whatever the
		// full scan accepts and counts the same completions.
		if pr, perr := ScanJournalProgress(path); perr != nil || pr.Done != st.Done || len(pr.Restored) != 0 ||
			len(pr.Scenarios) != len(st.Scenarios) || pr.Granted+pr.Expired+pr.Released != st.Granted+st.Expired+st.Released {
			t.Fatalf("ScanJournalProgress err=%v, done %d; ScanJournal done %d", perr, pr.Done, st.Done)
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

// FuzzIndentedLen: Summary.JSON sizes its output buffer by a counting pass
// of indentWriter, so for any valid document the counted length must be
// exactly what json.Indent writes, and the writing pass's bytes must be
// json.Indent's — also when the document arrives in pieces, as a summary
// does (its fields, then each result's ID and held bytes), split anywhere,
// inside strings and escapes included.
func FuzzIndentedLen(f *testing.F) {
	golden, err := os.ReadFile("testdata/summary.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, s := range []string{
		`{}`, `[]`, `[{},[],{"a":[]}]`, `"x"`, `-1.5e3`, `null`,
		`{"a":"b\"c,{[:","d\\":[1,2,{"e":{}}],"f":true}`,
		`[[[[["deep"]]]],"é\\"]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatalf("Compact of valid JSON: %v", err)
		}
		var want bytes.Buffer
		if err := json.Indent(&want, compact.Bytes(), "", jsonIndent); err != nil {
			t.Fatalf("Indent of valid JSON: %v", err)
		}
		doc := compact.Bytes()
		count := &indentWriter{}
		count.Write(doc)
		if count.n != want.Len() {
			t.Fatalf("counted %d bytes, json.Indent wrote %d for %q", count.n, want.Len(), doc)
		}
		got, err := indentDoc(func(w io.Writer) error {
			_, err := w.Write(doc)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indentation differs from json.Indent:\n%s\nvs\n%s", got, want.Bytes())
		}
		// The same document in three pieces, cut where its length says.
		a, b := len(doc)/3, len(doc)*2/3+len(doc)%7
		b = min(b, len(doc))
		got, err = indentDoc(func(w io.Writer) error {
			w.Write(doc[:a])
			w.Write(doc[a:b])
			w.Write(doc[b:])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("cut at %d and %d, indentation differs from json.Indent:\n%s\nvs\n%s", a, b, got, want.Bytes())
		}
	})
}
