package campaign

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"dmafault/internal/metrics"
)

// plainResult is Result without methods: json.Marshal of it is the
// reflection encoding a result's held bytes must equal.
type plainResult Result

// checkHeld fails unless r holds an encoding and it is byte-identical to
// the reflection encoding of r's current fields.
func checkHeld(t *testing.T, what string, r *Result) {
	t.Helper()
	head, rest, err := r.JSONParts(nil)
	if err != nil {
		t.Fatalf("%s: %s: %v", what, r.ID, err)
	}
	if rest == nil {
		t.Fatalf("%s: %s holds no encoding", what, r.ID)
	}
	want, err := json.Marshal((*plainResult)(r))
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, rest...); !bytes.Equal(got, want) {
		t.Fatalf("%s: %s held bytes differ from reflection:\n%.400s\n---\n%.400s", what, r.ID, got, want)
	}
}

// recordStore is an in-memory Store that keeps records as bytes, the way
// internal/resultstore does: Put writes a result's held encoding, Get
// decodes a copy of the record.
type recordStore struct {
	mu sync.Mutex
	m  map[Digest][]byte
}

func (rs *recordStore) Get(d Digest) (*Result, bool) {
	rs.mu.Lock()
	rec, ok := rs.m[d]
	rs.mu.Unlock()
	if !ok {
		return nil, false
	}
	r, err := DecodeResult(bytes.Clone(rec))
	return r, err == nil
}

func (rs *recordStore) Put(d Digest, r *Result) error {
	head, rest, err := r.JSONParts(nil)
	if err != nil {
		return err
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.m[d] = append(head, rest...)
	return nil
}

// heldSets are the presets the held-bytes test covers: mixed, ladder, every
// kind (the attack kinds among them), and a fault-injected set whose panic,
// retried allocator faults and DMA corruption all reach results.
func heldSets() map[string][]Scenario {
	faulted := LadderPreset(4, 31)
	faulted[0].FaultSpec = "scenario-panic@1"
	faulted[1].FaultSpec = "alloc-fail@1"
	faulted[2].FaultSpec = "dma-corrupt:0.05"
	return map[string][]Scenario{
		"mixed":  MixedPreset(6, 2021),
		"ladder": LadderPreset(8, 2021),
		"every kind": append(FuzzPreset(8, 2021),
			Scenario{Kind: KindPoisonedTX, Seed: 3}, Scenario{Kind: KindForwardThinking, Seed: 4},
			Scenario{Kind: KindPageSpray, Seed: 5, Trials: 1, Attempts: 1}),
		"faultinject": faulted,
	}
}

// TestHeldBytesEqualReflection: every result the engine produces — executed,
// replayed from a store of records, restored from a journal — holds bytes
// equal to the reflection encoding of its fields, and the summary written
// from them is json.MarshalIndent's of the reflection-encoded summary.
func TestHeldBytesEqualReflection(t *testing.T) {
	for name, set := range heldSets() {
		t.Run(name, func(t *testing.T) {
			store := &recordStore{m: map[Digest][]byte{}}
			jpath := filepath.Join(t.TempDir(), "journal.jsonl")
			j, err := OpenJournal(jpath, set, false)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Engine{Workers: 2, Cache: store, Journal: j}.Run(set)
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range cold.Results {
				checkHeld(t, "executed", r)
			}
			if name == "faultinject" && (cold.Panics != 1 || cold.Errors == cold.Panics) {
				t.Fatalf("fault plan reached %d panics and %d errors", cold.Panics, cold.Errors)
			}
			warm, err := Engine{Workers: 2, Cache: store}.Run(set)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range warm.Results {
				checkHeld(t, "replayed", r)
			}
			restored, err := LoadJournal(jpath, set)
			if err != nil || len(restored) != len(set) {
				t.Fatalf("journal restored %d of %d: %v", len(restored), len(set), err)
			}
			for _, r := range restored {
				checkHeld(t, "restored", r)
			}
			want := reflectSummaryJSON(t, cold)
			for arm, sum := range map[string]*Summary{"cold": cold, "warm": warm} {
				got, err := sum.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s summary differs from the reflection encoding", arm)
				}
			}
		})
	}
}

// reflectSummaryJSON is the summary indented from a reflection encoding of
// every result.
func reflectSummaryJSON(t *testing.T, s *Summary) []byte {
	t.Helper()
	plain := make([]*plainResult, len(s.Results))
	for i, r := range s.Results {
		plain[i] = (*plainResult)(r)
	}
	type summaryFields Summary
	data, err := json.MarshalIndent(struct {
		*summaryFields
		Results []*plainResult `json:"results"`
	}{(*summaryFields)(s), plain}, "", jsonIndent)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMergeFailureReencodes: the one mutation after a result is born,
// buildMetrics recording a snapshot it cannot merge, re-encodes the result,
// so its held bytes and the summary carry the error.
func TestMergeFailureReencodes(t *testing.T) {
	snap := func(kind metrics.Kind) *metrics.Snapshot {
		return &metrics.Snapshot{Families: []metrics.Family{
			{Name: "x_total", Kind: kind, Samples: []metrics.Sample{{Value: 1}}}}}
	}
	a := &Result{ID: "a", Kind: KindWindowLadder, Snapshot: snap(metrics.KindCounter)}
	b := &Result{ID: "b", Kind: KindWindowLadder, Snapshot: snap(metrics.KindGauge)}
	a.Encode()
	b.Encode()
	sum := Aggregate([]*Result{a, b})
	if b.Err == "" || sum.Errors != 1 {
		t.Fatalf("kind clash not recorded: b.Err %q, errors %d", b.Err, sum.Errors)
	}
	checkHeld(t, "merge failure", b)
	got, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := reflectSummaryJSON(t, sum); !bytes.Equal(got, want) {
		t.Fatal("summary after a merge failure differs from the reflection encoding")
	}
	if !bytes.Contains(got, []byte(`"err": "metrics merge: `)) {
		t.Fatal("summary does not carry the merge error")
	}
}

// TestResultJSONSplicesID: a result's encoding is written under its current
// ID, whatever ID it was encoded under, IDs that need escaping included.
func TestResultJSONSplicesID(t *testing.T) {
	r := &Result{ID: "0001-window-ladder-seed7", Kind: KindWindowLadder, Seed: 7, Metrics: map[string]string{"k": "v"}}
	r.Encode()
	for _, id := range []string{"", "x", "a<b>&\"c\"\\\n\u2028é\xff", string(bytes.Repeat([]byte("long-id-"), 40))} {
		c := *r
		c.ID = id
		checkHeld(t, "spliced", &c)
		got, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal((*plainResult)(&c)); !bytes.Equal(got, want) {
			t.Fatalf("json.Marshal under ID %q:\n%s\n---\n%s", id, got, want)
		}
	}
}
