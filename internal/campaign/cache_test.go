package campaign

import (
	"bytes"
	"sync"
	"testing"
)

// mapStore is the trivial in-memory Store tests use in place of
// internal/resultstore (which cannot be imported here — it imports campaign).
type mapStore struct {
	mu   sync.Mutex
	m    map[Digest]*Result
	puts int
}

func newMapStore() *mapStore { return &mapStore{m: map[Digest]*Result{}} }

func (ms *mapStore) Get(d Digest) (*Result, bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	r, ok := ms.m[d]
	return r, ok
}

func (ms *mapStore) Put(d Digest, r *Result) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	ms.m[d] = r
	ms.puts++
	return nil
}

// The digest is position- and ID-blind: the same spec hashes identically
// whatever slot it occupies, and differing specs diverge.
func TestScenarioDigestSemantics(t *testing.T) {
	a := Scenario{Kind: KindWindowLadder, Seed: 7}
	b := a
	b.ID = "0003-window-ladder-seed7" // a normalized copy from another run
	if ScenarioDigest(a) != ScenarioDigest(b) {
		t.Fatal("digest depends on the position-derived ID")
	}
	c := a
	c.Normalize(12) // defaults filled + ID stamped
	if ScenarioDigest(a) != ScenarioDigest(c) {
		t.Fatal("digest differs between raw and normalized copies of one spec")
	}
	d := a
	d.Seed = 8
	if ScenarioDigest(a) == ScenarioDigest(d) {
		t.Fatal("digest ignores the seed")
	}
	e := a
	e.Mode = "strict"
	if ScenarioDigest(a) == ScenarioDigest(e) {
		t.Fatal("digest ignores the IOMMU mode")
	}
	if ScenarioKey(a) != ScenarioDigest(a).Short() {
		t.Fatal("ScenarioKey is not the digest's short form")
	}
}

// A warm cache replays every scenario — zero Puts, every index reported via
// OnCacheHit — and the summary is byte-identical to the cold run's.
func TestEngineCacheColdThenWarm(t *testing.T) {
	scenarios := Presets["ladder"](8, 2021)
	store := newMapStore()

	cold := Engine{Workers: 4, Cache: store}
	coldSum, err := cold.Run(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if store.puts != len(scenarios) {
		t.Fatalf("cold run stored %d results, want %d", store.puts, len(scenarios))
	}
	for d, r := range store.m {
		if r.ID != "" {
			t.Fatalf("stored result %s carries position-derived ID %q", d.Short(), r.ID)
		}
	}
	want, err := coldSum.JSON()
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	hits := map[int]bool{}
	warm := Engine{Workers: 4, Cache: store, OnCacheHit: func(i int) {
		mu.Lock()
		hits[i] = true
		mu.Unlock()
	}}
	warmSum, err := warm.Run(scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if store.puts != len(scenarios) {
		t.Fatalf("warm run stored %d extra results", store.puts-len(scenarios))
	}
	if len(hits) != len(scenarios) {
		t.Fatalf("OnCacheHit fired for %d of %d scenarios", len(hits), len(scenarios))
	}
	got, err := warmSum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("warm summary differs from cold:\n%s\nvs\n%s", got, want)
	}
}

// Only spec-pure outcomes are recorded: a timeout depends on machine speed
// and must re-execute every run, while a deterministic panic replays.
func TestCacheablePolicy(t *testing.T) {
	if Cacheable(&Result{Outcome: OutcomeTimeout}) {
		t.Error("timeout results must not be cached")
	}
	if !Cacheable(&Result{Outcome: OutcomePanic, Stack: "sanitized"}) {
		t.Error("panic results are deterministic and should cache")
	}
	if !Cacheable(&Result{Success: true}) {
		t.Error("completed results should cache")
	}
}

// End to end: the engine must skip Put for a timed-out scenario.
func TestEngineDoesNotCacheTimeouts(t *testing.T) {
	scs := []Scenario{{Kind: KindWindowLadder, Seed: 1,
		FaultSpec: "scenario-stall@1", TimeoutMS: 20}}
	store := newMapStore()
	sum, err := Engine{Workers: 1, Cache: store}.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Results[0].Outcome != OutcomeTimeout {
		t.Fatalf("scenario did not time out: %+v", sum.Results[0])
	}
	if store.puts != 0 {
		t.Fatalf("timeout result was cached (%d puts)", store.puts)
	}
}

// A cached panic replays byte-identically: the second run's summary (stack
// and all) matches the first without executing the panicking scenario.
func TestEnginePanicReplaysFromCache(t *testing.T) {
	scs := []Scenario{{Kind: KindWindowLadder, Seed: 5, FaultSpec: "scenario-panic@1"}}
	store := newMapStore()
	first, err := Engine{Workers: 1, Cache: store}.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Results[0].Outcome != OutcomePanic {
		t.Fatalf("scenario did not panic: %+v", first.Results[0])
	}
	if store.puts != 1 {
		t.Fatalf("panic result not cached (%d puts)", store.puts)
	}
	hits := 0
	second, err := Engine{Workers: 1, Cache: store, OnCacheHit: func(int) { hits++ }}.Run(scs)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("replay executed instead of hitting the cache")
	}
	a, _ := first.JSON()
	b, _ := second.JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("replayed panic summary differs:\n%s\nvs\n%s", b, a)
	}
}
