package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"dmafault/internal/campaign"
	"dmafault/internal/recordlog"
)

// Coordinator state log: an internal/recordlog log recording everything the
// coordinator must not forget across a kill — lease grants, expiries,
// re-leases, and every delivered result. The header binds the log to its
// campaign (scenario-set hash + shard size); every record is exactly one
// JSON event. A resumed coordinator replays the log to pre-fill delivered
// results (those scenarios never re-execute) and to restore the journaled
// lease counters, so fabric_releases_total reflects the whole campaign even
// after a coordinator kill -9 and restart.

// stateKind is the state log's record-log kind tag.
const stateKind = "fabric-state"

type stateHeader struct {
	Scenarios int    `json:"scenarios"`
	Hash      string `json:"hash"`
	ShardSize int    `json:"shard_size"`
}

// LeaseEvent is one lease-lifecycle record: which shard, which worker,
// which attempt (0 = first grant; > 0 = a re-lease).
type LeaseEvent struct {
	Shard   int    `json:"shard"`
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
}

// stateRecord is one log record past the header. Exactly one field is set:
// a lease-lifecycle event, or a delivered result (Result non-nil, Index
// meaningful). Sharing the {index,result} shape with the campaign journal
// keeps the two logs grep-compatible.
type stateRecord struct {
	Lease    *LeaseEvent      `json:"lease,omitempty"`
	Expired  *LeaseEvent      `json:"expired,omitempty"`
	Released *LeaseEvent      `json:"released,omitempty"`
	Index    int              `json:"index,omitempty"`
	Result   *campaign.Result `json:"result,omitempty"`
}

// StateLog appends coordinator events to an open state log. Each record
// is one append to the record log, so concurrent shard goroutines never
// interleave bytes.
type StateLog struct {
	log *recordlog.Log
}

// JournalState is what a resumed coordinator recovers from its state log:
// every delivered result keyed by global scenario index, plus the lease
// counters to replay into the metric plane.
type JournalState struct {
	Restored map[int]*campaign.Result
	Granted  int
	Expired  int
	Released int
}

// OpenStateLog creates (resume=false) or reopens (resume=true) the
// coordinator state log at path for the given normalized scenario set and
// shard size. A fresh open truncates and writes the header; a resume
// validates the header (set hash and shard size — shard boundaries must not
// move under recorded lease events), truncates any torn final record, and
// returns the recovered state. Resuming a path that does not exist falls
// back to a fresh log, so -resume on a first run just works.
func OpenStateLog(path string, scs []campaign.Scenario, shardSize int, resume bool) (*StateLog, *JournalState, error) {
	sr := newStateReader(scs, shardSize)
	hdr, err := json.Marshal(stateHeader{Scenarios: sr.n, Hash: sr.hash, ShardSize: shardSize})
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: state log: %w", err)
	}
	l, err := recordlog.Open(path, stateKind, hdr, !resume, sr.header, sr.record)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: state log: %w", err)
	}
	return &StateLog{log: l}, &sr.st, nil
}

// ReadStateLog recovers the state of a log without opening it for append —
// what tests inspect. A missing file yields empty state.
func ReadStateLog(path string, scs []campaign.Scenario, shardSize int) (*JournalState, error) {
	sr := newStateReader(scs, shardSize)
	if err := recordlog.Scan(path, stateKind, sr.header, sr.record); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("fabric: state log: %w", err)
	}
	return &sr.st, nil
}

// stateReader validates a state log against its campaign binding and
// replays its records into the recovered state.
type stateReader struct {
	n, shardSize int
	hash         string
	st           JournalState
}

func newStateReader(scs []campaign.Scenario, shardSize int) *stateReader {
	return &stateReader{n: len(scs), shardSize: shardSize, hash: campaign.SetHash(scs),
		st: JournalState{Restored: map[int]*campaign.Result{}}}
}

func (sr *stateReader) header(b []byte) error {
	var hdr stateHeader
	if err := json.Unmarshal(b, &hdr); err != nil {
		return fmt.Errorf("bad header: %w", err)
	}
	if hdr.Scenarios != sr.n {
		return fmt.Errorf("%d scenarios, campaign has %d", hdr.Scenarios, sr.n)
	}
	if hdr.Hash != sr.hash {
		return fmt.Errorf("scenario set hash %s, campaign is %s", hdr.Hash, sr.hash)
	}
	if hdr.ShardSize != sr.shardSize {
		return fmt.Errorf("shard size %d, coordinator uses %d", hdr.ShardSize, sr.shardSize)
	}
	return nil
}

func (sr *stateReader) record(_ int64, b []byte) error {
	var rec stateRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("bad record: %w", err)
	}
	switch {
	case rec.Lease != nil:
		sr.st.Granted++
	case rec.Expired != nil:
		sr.st.Expired++
	case rec.Released != nil:
		sr.st.Released++
	case rec.Result != nil:
		if rec.Index < 0 || rec.Index >= sr.n {
			return fmt.Errorf("result index %d out of range", rec.Index)
		}
		sr.st.Restored[rec.Index] = rec.Result
	default:
		return errors.New("record with no recognized event")
	}
	return nil
}

// append marshals and appends one record. Nil-safe.
func (l *StateLog) append(rec stateRecord) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = l.log.Append(b)
	return err
}

// Lease records a shard lease grant.
func (l *StateLog) Lease(e LeaseEvent) error { return l.append(stateRecord{Lease: &e}) }

// Expired records a lease that ended without delivering results.
func (l *StateLog) Expired(e LeaseEvent) error { return l.append(stateRecord{Expired: &e}) }

// Released records a re-lease: the shard going to a new worker after a
// failed lease.
func (l *StateLog) Released(e LeaseEvent) error { return l.append(stateRecord{Released: &e}) }

// Result records one delivered scenario result.
func (l *StateLog) Result(index int, r *campaign.Result) error {
	return l.append(stateRecord{Index: index, Result: r})
}

// Close closes the underlying file. Nil-safe.
func (l *StateLog) Close() error {
	if l == nil {
		return nil
	}
	return l.log.Close()
}
