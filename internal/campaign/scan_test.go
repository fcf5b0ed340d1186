package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dmafault/internal/recordlog"
)

// TestScanJournalRecoversStateFromPathAlone: the boot-recovery primitive —
// no out-of-band scenario set, just the file.
func TestScanJournalRecoversStateFromPathAlone(t *testing.T) {
	dir := t.TempDir()
	set := journalSet()
	path := filepath.Join(dir, "job-1.jsonl")
	full, _ := runWithJournal(t, filepath.Join(dir, "ref.jsonl"), set, false, 2)

	j, err := OpenJournal(path, set, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(i, full.Results[i]); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// A crash mid-append leaves a torn tail; the scan must shrug it off.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":5,"result":{"id":"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := ScanJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Scenarios) != len(set) || len(st.Restored) != 3 || !st.Unfinished() {
		t.Fatalf("scan: %d scenarios, %d restored, unfinished=%v",
			len(st.Scenarios), len(st.Restored), st.Unfinished())
	}
	// The embedded set resumes the engine to the same summary bytes.
	eng := Engine{Workers: 2, Completed: st.Restored}
	sum, err := eng.Run(st.Scenarios)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := full.JSON()
	got, _ := sum.JSON()
	if !bytes.Equal(got, want) {
		t.Fatal("summary resumed via ScanJournal differs from uninterrupted run")
	}
}

// TestScanJournalDetectsFinishedSets: a complete journal scans as finished,
// so boot recovery leaves it alone.
func TestScanJournalDetectsFinishedSets(t *testing.T) {
	dir := t.TempDir()
	set := journalSet()[:3]
	path := filepath.Join(dir, "done.jsonl")
	runWithJournal(t, path, set, false, 1)
	st, err := ScanJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unfinished() {
		t.Fatalf("complete journal scanned as unfinished: %d/%d", len(st.Restored), len(st.Scenarios))
	}
}

// writeJournalHeader writes a journal holding only the given header, built
// through the record log so its framing and checksum are valid.
func writeJournalHeader(t *testing.T, path string, hdr journalHeader) {
	t.Helper()
	b, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	l, err := recordlog.Open(path, journalKind, b, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// TestScanJournalRejectsTamperedEmbeddedSet: editing the embedded set breaks
// the header hash, so a hand-modified journal cannot silently resume.
func TestScanJournalRejectsTamperedEmbeddedSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tampered.jsonl")
	set := journalSet()
	hdr := journalHeader{Scenarios: len(set), Hash: SetHash(set), Set: normalizeSet(set)}
	hdr.Set[0].Seed = 501
	writeJournalHeader(t, path, hdr)
	if _, err := ScanJournal(path); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("tampered journal scanned: err=%v", err)
	}
}

// TestScanJournalRejectsJournalsWithoutEmbeddedSet: a header without the
// set copy is an explicit error, not a silent skip.
func TestScanJournalRejectsJournalsWithoutEmbeddedSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.jsonl")
	writeJournalHeader(t, path, journalHeader{Scenarios: 2, Hash: "deadbeefdeadbeef"})
	if _, err := ScanJournal(path); err == nil || !strings.Contains(err.Error(), "no embedded scenario set") {
		t.Fatalf("journal without a set scanned: err=%v", err)
	}
}

// TestScenarioKeyIsPositionIndependent: the quarantine breaker's identity —
// equal specs share a key no matter where they sit in a set or what ID
// normalization assigned them; different specs do not.
func TestScenarioKeyIsPositionIndependent(t *testing.T) {
	a := Scenario{Kind: KindWindowLadder, Seed: 7}
	b := Scenario{Kind: KindWindowLadder, Seed: 7}
	b.Normalize(42) // stamped with a different index-derived ID
	if ScenarioKey(a) != ScenarioKey(b) {
		t.Error("identical specs at different positions got different keys")
	}
	c := Scenario{Kind: KindWindowLadder, Seed: 8}
	if ScenarioKey(a) == ScenarioKey(c) {
		t.Error("different seeds share a key")
	}
	d := Scenario{Kind: KindWindowLadder, Seed: 7, FaultSpec: "scenario-panic@1"}
	if ScenarioKey(a) == ScenarioKey(d) {
		t.Error("different fault specs share a key")
	}
}

// TestEngineGateShortCircuits: gated scenarios never execute, their recorded
// results are journaled and aggregated, and the summary is byte-identical at
// any worker count (the determinism the quarantine layer leans on).
func TestEngineGateShortCircuits(t *testing.T) {
	set := journalSet()
	gate := func(i int, sc *Scenario) *Result {
		if i%3 == 0 {
			return QuarantinedResult(sc)
		}
		return nil
	}
	var ref []byte
	for _, workers := range []int{1, 4, 7} {
		dir := t.TempDir()
		path := filepath.Join(dir, "gated.jsonl")
		j, err := OpenJournal(path, set, false)
		if err != nil {
			t.Fatal(err)
		}
		executed := map[int]bool{}
		var mu sync.Mutex
		eng := Engine{Workers: workers, Gate: gate, Journal: j,
			OnResult: func(i int, r *Result) {
				mu.Lock()
				if r.Outcome != OutcomeQuarantined {
					executed[i] = true
				}
				mu.Unlock()
			}}
		sum, err := eng.Run(set)
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range set {
			if i%3 == 0 && executed[i] {
				t.Fatalf("workers=%d: gated scenario %d executed", workers, i)
			}
		}
		if sum.Quarantined != 3 {
			t.Fatalf("workers=%d: summary counted %d quarantined, want 3", workers, sum.Quarantined)
		}
		got, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: gated summary differs from workers=1", workers)
		}
		// The journal carries the quarantined records like executed ones.
		restored, err := LoadJournal(path, set)
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != len(set) || restored[0].Outcome != OutcomeQuarantined {
			t.Fatalf("workers=%d: journal restored %d records, [0] outcome %q",
				workers, len(restored), restored[0].Outcome)
		}
	}
}
