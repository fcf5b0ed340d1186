package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dmafault/internal/recordlog"
)

func journalSet() []Scenario {
	set := make([]Scenario, 8)
	for i := range set {
		set[i] = Scenario{Kind: KindWindowLadder, Seed: int64(500 + i)}
	}
	return set
}

// runWithJournal runs the set journaling to path, restoring from it first
// when resume is set. Returns the summary and how many scenarios actually
// executed (as opposed to being restored).
func runWithJournal(t *testing.T, path string, set []Scenario, resume bool, workers int) (*Summary, int) {
	t.Helper()
	j, err := OpenJournal(path, set, resume)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	eng := Engine{Workers: workers, Journal: j, Completed: j.State().Restored}
	var executed atomic.Int64
	eng.OnResult = func(int, *Result) { executed.Add(1) }
	sum, err := eng.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	return sum, int(executed.Load())
}

func TestJournalResumeMatchesUninterruptedRun(t *testing.T) {
	dir := t.TempDir()
	set := journalSet()

	// The uninterrupted reference run.
	full, ran := runWithJournal(t, filepath.Join(dir, "full.jsonl"), set, false, 4)
	if ran != len(set) {
		t.Fatalf("reference run executed %d/%d", ran, len(set))
	}
	wantJSON, err := full.JSON()
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a kill after 3 completed scenarios: write a journal holding
	// only the records for indexes 0..2, as if the process died mid-run.
	interrupted := filepath.Join(dir, "interrupted.jsonl")
	j, err := OpenJournal(interrupted, set, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(i, full.Results[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: only the 5 unfinished scenarios may execute, and the final
	// summary must be byte-identical to the uninterrupted run's.
	sum, ran := runWithJournal(t, interrupted, set, true, 4)
	if ran != len(set)-3 {
		t.Fatalf("resume executed %d scenarios, want %d", ran, len(set)-3)
	}
	gotJSON, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed summary differs from uninterrupted run")
	}

	// The resumed journal is now complete: restoring from it executes 0.
	sum2, ran := runWithJournal(t, interrupted, set, true, 4)
	if ran != 0 {
		t.Fatalf("second resume executed %d scenarios, want 0", ran)
	}
	got2, _ := sum2.JSON()
	if !bytes.Equal(got2, wantJSON) {
		t.Fatal("fully-restored summary differs")
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	set := journalSet()[:3]
	path := filepath.Join(dir, "torn.jsonl")
	full, _ := runWithJournal(t, path, set, false, 1)

	// A crash mid-append leaves a torn (newline-less, half-written) line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"index":2,"result":{"id":"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored, err := LoadJournal(path, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 3 {
		t.Fatalf("restored %d records, want 3 intact ones", len(restored))
	}

	// Resume-for-append truncates the torn tail; a fresh record then reads
	// back cleanly.
	j, err := OpenJournal(path, set, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(1, full.Results[1]); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := LoadJournal(path, set); err != nil {
		t.Fatalf("journal unreadable after torn-tail truncation: %v", err)
	}
}

func TestJournalRejectsForeignScenarioSet(t *testing.T) {
	dir := t.TempDir()
	set := journalSet()
	path := filepath.Join(dir, "a.jsonl")
	j, err := OpenJournal(path, set, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	other := journalSet()
	other[0].Seed = 9999
	if _, err := LoadJournal(path, other); err == nil {
		t.Fatal("journal accepted a different scenario set")
	}
	shorter := set[:4]
	if _, err := LoadJournal(path, shorter); err == nil {
		t.Fatal("journal accepted a different scenario count")
	}
}

func TestJournalResumeOnMissingFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	set := journalSet()[:2]
	path := filepath.Join(dir, "never-written.jsonl")
	if restored, err := LoadJournal(path, set); err != nil || len(restored) != 0 {
		t.Fatalf("LoadJournal on missing file: %v, %d records", err, len(restored))
	}
	j, err := OpenJournal(path, set, true)
	if err != nil {
		t.Fatalf("resume-open on missing file: %v", err)
	}
	j.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal not created: %v", err)
	}
}

func TestCancelledScenariosAreNotJournaled(t *testing.T) {
	dir := t.TempDir()
	// Every scenario stalls 250ms; cancel fires mid-first-wave, so claimed
	// scenarios abandon (nil result) and must not be journaled.
	set := make([]Scenario, 6)
	for i := range set {
		set[i] = Scenario{Kind: KindWindowLadder, Seed: int64(i), FaultSpec: "scenario-stall@1"}
	}
	path := filepath.Join(dir, "cancelled.jsonl")
	j, err := OpenJournal(path, set, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	eng := Engine{Workers: 2, Journal: j}
	go cancel() // cancel immediately; stalls notice via ctx.Done
	_, err = eng.RunCtx(ctx, set)
	j.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	restored, err := LoadJournal(path, set)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range restored {
		if r.Outcome != "" || r.Err != "" {
			t.Fatalf("journaled record %d is not a clean completion: outcome=%q err=%q", i, r.Outcome, r.Err)
		}
	}
}

// journalPayloads returns the record payloads of the journal at path.
func journalPayloads(t testing.TB, path string) [][]byte {
	t.Helper()
	var out [][]byte
	if err := recordlog.Scan(path, journalKind, nil, func(_ int64, rec []byte) error {
		out = append(out, bytes.Clone(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// writeMixedJournal writes a journal over set holding two results with a
// lease grant, expiry and re-lease between them — the shape a fabric
// coordinator leaves.
func writeMixedJournal(t testing.TB, path string, set []Scenario) *Summary {
	t.Helper()
	sum, err := Engine{Workers: 1}.Run(set[:2])
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, set, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range []any{
		LeaseEvent{Event: LeaseGranted, ShardSize: 2, Worker: "http://w1"},
		0,
		LeaseEvent{Event: LeaseExpired, Shard: 1, ShardSize: 2, Worker: "http://w1"},
		LeaseEvent{Event: LeaseReleased, Shard: 1, ShardSize: 2, Worker: "http://w2", Attempt: 1},
		1,
	} {
		switch rec := rec.(type) {
		case LeaseEvent:
			err = j.Lease(rec)
		case int:
			err = j.Record(rec, sum.Results[rec])
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return sum
}

// TestJournalLeaseRecords: lease records are counted, never restored as
// results, and leave the result records in their pre-lease byte shape.
func TestJournalLeaseRecords(t *testing.T) {
	set := journalSet()[:4]
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	sum := writeMixedJournal(t, path, set)

	payloads := journalPayloads(t, path)
	want, err := json.Marshal(struct {
		Index  int     `json:"index"`
		Result *Result `json:"result"`
	}{1, sum.Results[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payloads[4], want) {
		t.Fatalf("result record %s, want %s", payloads[4], want)
	}
	if got := string(payloads[3]); got != `{"lease":{"event":"released","shard":1,"shard_size":2,"worker":"http://w2","attempt":1}}` {
		t.Fatalf("lease record %s", got)
	}

	restored, err := LoadJournal(path, set)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ScanJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 || len(st.Restored) != 2 {
		t.Fatalf("restored %d and %d results, want 2", len(restored), len(st.Restored))
	}
	if st.Granted != 1 || st.Expired != 1 || st.Released != 1 || st.ShardSize != 2 {
		t.Fatalf("lease counts %d/%d/%d at shard size %d, want 1/1/1 at 2",
			st.Granted, st.Expired, st.Released, st.ShardSize)
	}
	j, err := OpenJournal(path, set, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := j.State(); len(got.Restored) != 2 || got.Released != 1 {
		t.Fatalf("resumed open restored %d results and %d re-leases", len(got.Restored), got.Released)
	}
}

// TestJournalRejectsBadRecords: a record that is neither a result nor a
// valid lease event fails the read with an error saying what is wrong.
func TestJournalRejectsBadRecords(t *testing.T) {
	set := journalSet()[:4]
	for rec, want := range map[string]string{
		`{"index":1}`: "neither a result nor a lease event",
		`{"index":1,"result":{},"lease":{"event":"granted","shard_size":2}}`: "both a result and a lease event",
		`{"lease":{"event":"stolen","shard_size":2}}`:                        `unknown event "stolen"`,
		`{"lease":{"event":"granted","shard":2,"shard_size":2}}`:             "shard 2 of size 2",
		`{"lease":{"event":"granted","shard_size":0}}`:                       "shard 0 of size 0",
		`{"index":4,"result":{}}`:                                            "index 4 out of range",
	} {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		j, err := OpenJournal(path, set, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		if _, err := LoadJournal(path, set); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err=%v, want it to say %q", rec, err, want)
		}
	}

	// Lease records of one journal must agree on the shard size.
	path := filepath.Join(t.TempDir(), "sizes.jsonl")
	j, err := OpenJournal(path, set, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{2, 4} {
		if err := j.Lease(LeaseEvent{Event: LeaseGranted, ShardSize: size}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if _, err := ScanJournal(path); err == nil || !strings.Contains(err.Error(), "shard sizes 2 and 4") {
		t.Errorf("mixed shard sizes: err=%v", err)
	}
}
