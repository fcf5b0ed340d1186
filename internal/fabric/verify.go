package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dmafault/internal/faultd/api"
	"dmafault/internal/faultdclient"
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
//     the job completes; the coordinator recomputes the digest from the
//     results it decoded. Canonical-JSON determinism makes the recompute
//     byte-faithful, so a single flipped bit anywhere in the results —
//     including fields no identity check looks at, like a window path or a
//     metrics string — surfaces as a mismatch.
//
// What this deliberately cannot catch: a byzantine worker that *executes*
// dishonestly and hashes its own lies consistently. Detecting that would
// require re-executing the shard (the digest would verify, the results
// would be wrong), which is the local-fallback path's job if an operator
// ever needs it. The layer's contract is exact: bytes merged into the
// campaign are the bytes an honest worker produced, or the shard re-leases.

// errIntegrity marks a delivery rejected by verification (or a lease killed
// by repeated torn documents). The lease fails and the range re-leases,
// skipping this worker while another is up; errors.Is is the classifier.
var errIntegrity = errors.New("fabric: integrity rejected")

// tornPollBudget is how many consecutive torn job documents one lease
// tolerates before giving up. Each torn body is counted and logged; the
// budget keeps a lease from spinning forever against a hopeless transport
// while letting it ride out a burst of chaos.
const tornPollBudget = 8

// isTornBody reports whether a client error is a torn response body — a
// document the transport truncated or corrupted past JSON validity —
// rather than a transport or status failure.
func isTornBody(err error) bool {
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syn) || errors.As(err, &typ) || errors.Is(err, io.ErrUnexpectedEOF)
}

// pollTerminal polls one leased job to a terminal status, tolerating torn
// documents: each is counted as an integrity rejection and retried on the
// normal poll cadence instead of failing the lease outright — a truncated
// poll is the network's fault, and the next poll usually reads clean.
func (c *Coordinator) pollTerminal(ctx context.Context, cl *faultdclient.Client, id int) (*api.Job, error) {
	torn := 0
	for {
		job, err := cl.Get(ctx, id)
		switch {
		case err == nil:
			torn = 0
			if job.Status.Terminal() {
				return job, nil
			}
		case isTornBody(err) && ctx.Err() == nil:
			torn++
			c.m.IntegrityRejected.Inc()
			c.log.Warn("fabric torn job document", "job", id, "consecutive", torn, "err", err)
			if torn >= tornPollBudget {
				return nil, fmt.Errorf("%w: %d consecutive torn documents for job %d: %v",
					errIntegrity, torn, id, err)
			}
		default:
			return nil, err
		}
		if err := faultdclient.Sleep(ctx, faultdclient.DefaultPollInterval); err != nil {
			return nil, err
		}
	}
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
	}
	if job.ResultsHash != "" {
		if got := api.HashResults(res); got != job.ResultsHash {
			return fmt.Errorf("%w: job %d results digest %.12s, worker stamped %.12s",
				errIntegrity, jobID, got, job.ResultsHash)
		}
	}
	return nil
}
