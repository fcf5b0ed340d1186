package campaign

import "fmt"

// Content-addressed result caching: scenarios are pure functions of their
// spec (the seed drives every randomized component), so a result recorded
// under a scenario's Digest can be replayed in any later campaign that
// schedules the same spec — same preset re-run, overlapping grid sweep,
// resumed fuzz corpus — without executing anything. The Engine consults a
// Store as a pre-execution gate; internal/resultstore provides the
// persistent implementation (an append-only binary log modeled on ninja's
// build/deps logs), and tests substitute trivial in-memory maps.

// Store is a content-addressed scenario-result cache the engine consults
// before executing a scenario. Get returns the recorded result for a digest
// (the stored copy must not be mutated by callers other than the engine's
// replay, which only re-stamps the position-derived ID on a shallow copy);
// Put records a freshly executed result under its digest, overwriting any
// previous record for the same digest. Implementations must be safe for
// concurrent use — engine workers call both from every goroutine.
type Store interface {
	Get(d Digest) (*Result, bool)
	Put(d Digest, r *Result) error
}

// Cacheable reports whether a result may be recorded in a Store. Only
// outcomes that are pure functions of the spec qualify: completed runs
// (ok/miss/error) and panics (stacks are sanitized to be byte-identical)
// replay faithfully, but a timeout depends on wall-clock machine speed, so
// recording one would replay an accident forever.
func Cacheable(r *Result) bool {
	return r.Outcome != OutcomeTimeout
}

// cacheReplay builds the replay copy of a stored result for one scheduled
// scenario: a shallow copy with the position-derived ID re-stamped, so the
// aggregated summary is byte-identical to an executed run's even when the
// spec sits at a different index than it did when recorded. Only ID is
// written; every shared field (metrics map, snapshot) stays aliased to the
// stored copy, which the engine never mutates.
func cacheReplay(r *Result, s *Scenario) *Result {
	rr := *r
	rr.ID = s.ID
	return &rr
}

// PutResult records a freshly executed result in st under its scenario's
// digest, if Cacheable. The stored copy is shallow with the
// position-derived ID blanked, mirroring how ScenarioDigest blanks the spec
// ID, so a record is position-independent. The engine and the fabric
// coordinator both publish through it.
func PutResult(st Store, d Digest, r *Result) error {
	if !Cacheable(r) {
		return nil
	}
	rr := *r
	rr.ID = ""
	if err := st.Put(d, &rr); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}
