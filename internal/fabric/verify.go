package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dmafault/internal/faultd/api"
)

// Result integrity verification: the fabric's trust boundary. A worker is a
// remote process returning bytes over an unreliable network — the same
// shape as the paper's peripheral returning DMA writes through an IOMMU —
// and the coordinator treats its deliveries accordingly: nothing merges
// into the campaign until it survives verification against the lease's own
// expected scenario set.
//
// Three layers, cheapest first:
//
//  1. Shape: the delivered document must be decodable JSON (the transport
//     layer already enforced this; a torn body never reaches verifyShard)
//     and carry exactly one result per shard position.
//  2. Identity: every result's (ID, Kind, Seed) must match the scenario the
//     coordinator leased at that position — the position-stamped identity
//     that ScenarioDigest is keyed on. This catches cross-shard mixups and
//     a worker answering with some *other* campaign's results.
//  3. Digest: the worker stamps api.HashResults over its results the moment
//     the job completes; the coordinator refuses a document without the
//     stamp and recomputes the digest over its own encoding of the results
//     it decoded (a worker's bytes are never adopted: a dishonest worker
//     stamps its own). Canonical-JSON determinism makes the recompute
//     byte-faithful, so a single flipped bit anywhere in the results —
//     including fields no identity check looks at, like a window path or a
//     metrics string — surfaces as a mismatch, while whitespace or key order
//     on the wire does not.
//
// What this deliberately cannot catch: a byzantine worker that *executes*
// dishonestly and hashes its own lies consistently. Detecting that would
// require re-executing the shard (the digest would verify, the results
// would be wrong), which is the local-fallback path's job if an operator
// ever needs it. The layer's contract is exact: bytes merged into the
// campaign are the bytes an honest worker produced, or the shard re-leases.

// errIntegrity marks a delivery rejected by verification (or a lease killed
// by repeated torn streams or documents). The lease fails and the range
// re-leases, skipping this worker while another is up; errors.Is is the
// classifier.
var errIntegrity = errors.New("fabric: integrity rejected")

// tornBudget is how many torn job streams and documents one lease
// tolerates before giving up. Each is counted and logged; the budget keeps a
// lease from spinning forever against a hopeless transport while letting it
// ride out a burst of chaos.
const tornBudget = 8

// errStreamEnded marks a job event stream that closed before its terminal
// status event — cut in transit, since the worker always ends a job's
// stream with one.
var errStreamEnded = errors.New("fabric: job event stream ended without a status")

// isTornBody reports whether a client error is a torn response body — a
// document the transport truncated or corrupted past JSON validity —
// rather than a transport or status failure.
func isTornBody(err error) bool {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syn) || errors.As(err, &typ) || errors.Is(err, io.ErrUnexpectedEOF)
}

// verifyShard checks one delivered terminal job against the lease's
// expected scenario slice. Any failure is wrapped in errIntegrity.
func (c *Coordinator) verifyShard(sh shard, jobID int, job *api.Job) error {
	if job.Summary == nil {
		return fmt.Errorf("%w: job %d terminal without a summary", errIntegrity, jobID)
	}
	res := job.Summary.Results
	if got, want := len(res), sh.End-sh.Start; got != want {
		return fmt.Errorf("%w: job %d returned %d results, shard %d holds %d",
			errIntegrity, jobID, got, sh.Idx, want)
	}
	c.mu.Lock()
	specs := c.scs[sh.Start:sh.End]
	c.mu.Unlock()
	for i, r := range res {
		if r == nil {
			return fmt.Errorf("%w: job %d result %d is null", errIntegrity, jobID, i)
		}
		sc := specs[i]
		if r.ID != sc.ID || r.Kind != sc.Kind || r.Seed != sc.Seed {
			return fmt.Errorf("%w: job %d result %d is %s/%s/%d, lease expected %s/%s/%d",
				errIntegrity, jobID, i, r.ID, r.Kind, r.Seed, sc.ID, sc.Kind, sc.Seed)
		}
		// The coordinator's canonical bytes are its own encoding of what it
		// decoded, never the worker's: the digest below and every later
		// write (journal, store, summary) use them.
		r.Encode()
	}
	// Every done fixed-set job a worker serves is stamped, so a missing
	// stamp is a document something rewrote on the way, not an old worker.
	if job.ResultsHash == "" {
		return fmt.Errorf("%w: job %d carries no results digest", errIntegrity, jobID)
	}
	if got := api.HashResults(res); got != job.ResultsHash {
		return fmt.Errorf("%w: job %d results digest %.12s, worker stamped %.12s",
			errIntegrity, jobID, got, job.ResultsHash)
	}
	return nil
}
