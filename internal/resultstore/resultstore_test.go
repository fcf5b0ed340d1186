package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dmafault/internal/campaign"
	"dmafault/internal/recordlog"
)

func mustOpen(t *testing.T, path string) *Store {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func testResult(seed int64) *campaign.Result {
	return &campaign.Result{
		Kind: "window-ladder", Seed: seed, Success: seed%2 == 0,
		Escalations: int(seed % 3),
		Metrics:     map[string]string{"window": "page"},
	}
}

func digestOf(seed int64) campaign.Digest {
	return campaign.ScenarioDigest(campaign.Scenario{Kind: "window-ladder", Seed: seed})
}

// Results written to the log must come back byte-equal across a close and
// reopen — the whole point of a persistent cache.
func TestRoundTripPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	want := map[int64][]byte{}
	for seed := int64(1); seed <= 5; seed++ {
		r := testResult(seed)
		if err := st.Put(digestOf(seed), r); err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(r)
		want[seed] = b
	}
	if st.Len() != 5 {
		t.Fatalf("Len = %d, want 5", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := mustOpen(t, path)
	if st2.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", st2.Len())
	}
	for seed, wantJSON := range want {
		r, ok := st2.Get(digestOf(seed))
		if !ok {
			t.Fatalf("seed %d: missing after reopen", seed)
		}
		got, _ := json.Marshal(r)
		if !bytes.Equal(got, wantJSON) {
			t.Errorf("seed %d: %s != %s", seed, got, wantJSON)
		}
	}
	if _, ok := st2.Get(digestOf(99)); ok {
		t.Fatal("phantom digest hit")
	}
	stats := st2.Stats()
	if stats.Hits != 5 || stats.Misses != 1 {
		t.Fatalf("stats %+v, want 5 hits / 1 miss", stats)
	}
}

// Overwriting a digest is append-only: the last record wins both live and
// after a reopen, and the loser is counted as superseded.
func TestLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	d := digestOf(7)
	first := testResult(7)
	second := testResult(7)
	second.Escalations = 42
	if err := st.Put(d, first); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(d, second); err != nil {
		t.Fatal(err)
	}
	if r, _ := st.Get(d); r.Escalations != 42 {
		t.Fatalf("live Get returned the superseded record: %+v", r)
	}
	st.Close()

	st2 := mustOpen(t, path)
	if st2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st2.Len())
	}
	if r, _ := st2.Get(d); r.Escalations != 42 {
		t.Fatalf("reopened Get returned the superseded record: %+v", r)
	}
	if st2.Stats().SupersededRecords != 1 {
		t.Fatalf("superseded = %d, want 1", st2.Stats().SupersededRecords)
	}
}

// A torn tail — the crash shape: a partial final record — is truncated on
// open and the store stays usable for appends, like the campaign journal.
func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	for seed := int64(1); seed <= 3; seed++ {
		if err := st.Put(digestOf(seed), testResult(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Simulate a crash mid-append: a length word promising more than is there.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := binary.LittleEndian.AppendUint32(nil, 500)
	torn = append(torn, []byte("partial rec")...)
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := mustOpen(t, path)
	if st2.Len() != 3 {
		t.Fatalf("Len after torn tail = %d, want 3", st2.Len())
	}
	// The tail must be gone from disk, and appending must work again.
	if err := st2.Put(digestOf(4), testResult(4)); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3 := mustOpen(t, path)
	if st3.Len() != 4 {
		t.Fatalf("Len after append-past-torn-tail = %d, want 4", st3.Len())
	}
}

// A corrupt record (CRC mismatch) ends the trustworthy prefix: records
// before it survive, it and everything after are truncated away.
func TestCorruptRecordTruncatesTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	for seed := int64(1); seed <= 3; seed++ {
		if err := st.Put(digestOf(seed), testResult(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Second record's payload starts after header + record 1.
	secondOff := st.index[digestOf(2)].off
	st.Close()

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, secondOff+2); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := mustOpen(t, path)
	if st2.Len() != 1 {
		t.Fatalf("Len after corrupt middle record = %d, want 1", st2.Len())
	}
	if _, ok := st2.Get(digestOf(1)); !ok {
		t.Fatal("record before the corruption lost")
	}
	if _, ok := st2.Get(digestOf(3)); ok {
		t.Fatal("record after the corruption trusted")
	}
}

// appendRecord writes one raw record with an arbitrary salt — the shape a
// previous engine version would have left behind.
func appendRecord(t *testing.T, path string, salt [saltLen]byte, d campaign.Digest, payload []byte) {
	t.Helper()
	l, err := recordlog.Open(path, kind, nil, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(salt[:], d[:], payload); err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// Records stamped by a different engine version are structurally intact but
// must never be served: open counts them stale and leaves them unindexed.
func TestStaleEngineSaltSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	if err := st.Put(digestOf(1), testResult(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	staleSalt := engineSalt("dmafault-engine-v1")
	payload, _ := json.Marshal(testResult(2))
	appendRecord(t, path, staleSalt, digestOf(2), payload)

	st2 := mustOpen(t, path)
	if st2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (stale record indexed?)", st2.Len())
	}
	if _, ok := st2.Get(digestOf(2)); ok {
		t.Fatal("stale-engine record served")
	}
	if st2.Stats().StaleRecords != 1 {
		t.Fatalf("stale = %d, want 1", st2.Stats().StaleRecords)
	}
}

// Compaction drops superseded and stale-engine records, preserves every
// live one byte-for-byte, and shrinks the file.
func TestCompactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	want := map[int64][]byte{}
	for seed := int64(1); seed <= 4; seed++ {
		if err := st.Put(digestOf(seed), testResult(seed)); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede two of them.
	for _, seed := range []int64{2, 3} {
		r := testResult(seed)
		r.Escalations = 99
		if err := st.Put(digestOf(seed), r); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		r, ok := st.Get(digestOf(seed))
		if !ok {
			t.Fatalf("seed %d missing pre-compact", seed)
		}
		want[seed], _ = json.Marshal(r)
	}
	st.Close()
	// A stale-engine record to drop too.
	payload, _ := json.Marshal(testResult(5))
	appendRecord(t, path, engineSalt("dmafault-engine-v1"), digestOf(5), payload)
	before, _ := os.Stat(path)

	cs, err := Compact(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.RecordsBefore != 7 || cs.RecordsAfter != 4 {
		t.Fatalf("compact %+v, want 7 -> 4 records", cs)
	}
	if cs.DroppedStale != 1 || cs.DroppedSuperseded != 2 {
		t.Fatalf("compact %+v, want 1 stale + 2 superseded dropped", cs)
	}
	if cs.BytesAfter >= before.Size() {
		t.Fatalf("compaction grew the log: %d -> %d", before.Size(), cs.BytesAfter)
	}

	st2 := mustOpen(t, path)
	if st2.Len() != 4 {
		t.Fatalf("Len after compact = %d, want 4", st2.Len())
	}
	stats := st2.Stats()
	if stats.StaleRecords != 0 || stats.SupersededRecords != 0 {
		t.Fatalf("compacted log still has dead records: %+v", stats)
	}
	for seed := int64(1); seed <= 4; seed++ {
		r, ok := st2.Get(digestOf(seed))
		if !ok {
			t.Fatalf("seed %d missing post-compact", seed)
		}
		got, _ := json.Marshal(r)
		if !bytes.Equal(got, want[seed]) {
			t.Errorf("seed %d changed across compaction:\n%s\nvs\n%s", seed, got, want[seed])
		}
	}
}

// Clear truncates back to the header but keeps the telemetry counters.
func TestClear(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	st := mustOpen(t, path)
	for seed := int64(1); seed <= 3; seed++ {
		if err := st.Put(digestOf(seed), testResult(seed)); err != nil {
			t.Fatal(err)
		}
	}
	st.Get(digestOf(1))
	dropped, err := st.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 3 || st.Len() != 0 {
		t.Fatalf("dropped %d, Len %d; want 3 and 0", dropped, st.Len())
	}
	if _, ok := st.Get(digestOf(1)); ok {
		t.Fatal("Get hit after Clear")
	}
	stats := st.Stats()
	if stats.Hits != 1 || stats.Stores != 3 {
		t.Fatalf("Clear reset the telemetry counters: %+v", stats)
	}
	// The cleared store must accept appends and survive a reopen.
	if err := st.Put(digestOf(9), testResult(9)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if got := mustOpen(t, path).Len(); got != 1 {
		t.Fatalf("Len after clear+append+reopen = %d, want 1", got)
	}
}

// The acceptance bar for the whole PR: a cold run populates the cache, and
// warm reruns at 1, 4, and 16 workers execute ZERO scenarios (no store
// misses) while producing byte-identical summaries — the cache is invisible
// in the output and total in the work saved.
func TestWarmCacheByteIdenticalAcrossWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	scenarios := campaign.Presets["ladder"](8, 2021)

	st := mustOpen(t, path)
	cold := campaign.Engine{Workers: 4, Cache: st}
	coldSum, err := cold.Run(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldSum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	coldStats := st.Stats()
	if coldStats.Stores == 0 {
		t.Fatal("cold run stored nothing")
	}
	st.Close()

	for _, w := range []int{1, 4, 16} {
		st := mustOpen(t, path)
		warm := campaign.Engine{Workers: w, Cache: st}
		sum, err := warm.Run(scenarios)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: warm summary differs from cold run", w)
		}
		stats := st.Stats()
		if stats.Misses != 0 {
			t.Errorf("workers=%d: %d scenarios executed on a warm cache", w, stats.Misses)
		}
		if stats.Hits != uint64(len(scenarios)) {
			t.Errorf("workers=%d: hits = %d, want %d", w, stats.Hits, len(scenarios))
		}
		if stats.Stores != 0 {
			t.Errorf("workers=%d: warm run appended %d records", w, stats.Stores)
		}
		st.Close()
	}
}

// A scenario's digest position in the set must not matter: a permuted set
// replays from the same records.
func TestWarmCacheOrderIndependent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.bin")
	scenarios := campaign.Presets["ladder"](6, 7)
	st := mustOpen(t, path)
	if _, err := (campaign.Engine{Workers: 2, Cache: st}).Run(scenarios); err != nil {
		t.Fatal(err)
	}
	coldMisses := st.Stats().Misses // the cold run's own lookups all missed

	reversed := make([]campaign.Scenario, len(scenarios))
	for i, s := range scenarios {
		reversed[len(scenarios)-1-i] = s
	}
	if _, err := (campaign.Engine{Workers: 2, Cache: st}).Run(reversed); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Misses != coldMisses {
		t.Fatalf("permuted warm run missed %d times", stats.Misses-coldMisses)
	}
	if stats.Hits != uint64(len(scenarios)) {
		t.Fatalf("permuted warm run hit %d times, want %d", stats.Hits, len(scenarios))
	}
}

// plainResult is campaign.Result without methods: json.Marshal of it is the
// reflection encoding a result's held bytes must equal.
type plainResult campaign.Result

// TestReplayHoldsRecordBytes: a hit keeps the record bytes Get read as the
// result's encoding, equal to the reflection encoding of what it decoded,
// and a replay under a position-derived ID writes them under that ID.
func TestReplayHoldsRecordBytes(t *testing.T) {
	st := mustOpen(t, filepath.Join(t.TempDir(), "results.bin"))
	set := append(campaign.MixedPreset(4, 2021), campaign.LadderPreset(4, 2021)...)
	set[1].FaultSpec = "scenario-panic@1"
	cold, err := campaign.Engine{Workers: 2, Cache: st}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := campaign.Engine{Workers: 2, Cache: st}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if hits := st.Stats().Hits; hits != uint64(len(set)) {
		t.Fatalf("%d hits for %d scenarios", hits, len(set))
	}
	for i, r := range warm.Results {
		head, rest, err := r.JSONParts(nil)
		if err != nil || rest == nil {
			t.Fatalf("replayed %s holds no encoding (err %v)", r.ID, err)
		}
		want, err := json.Marshal((*plainResult)(r))
		if err != nil {
			t.Fatal(err)
		}
		if got := append(head, rest...); !bytes.Equal(got, want) {
			t.Fatalf("replayed %s held bytes differ from reflection:\n%.300s\n---\n%.300s", r.ID, got, want)
		}
		if r.ID != cold.Results[i].ID {
			t.Fatalf("replay %d has ID %q, want %q", i, r.ID, cold.Results[i].ID)
		}
	}
	a, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("warm summary differs from the cold one")
	}
}
