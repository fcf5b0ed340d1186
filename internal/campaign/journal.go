package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strconv"

	"dmafault/internal/recordlog"
)

// Campaign journal: an internal/recordlog log recording each completed
// scenario so a killed campaign can resume without re-executing finished
// work, whether it ran on one node or across a fabric coordinator's
// workers. The header binds the journal to its scenario set (a hash over
// the normalized specs — resuming against a different set is an error);
// every record is one JSON {index, result}, appended atomically in whatever
// order workers finish. Because results are deterministic per scenario,
// replay order never matters: LoadJournal keys records by index, and a
// resumed run's summary is byte-identical to an uninterrupted run's. A
// torn final record (the crash case) is ignored on read and truncated away
// on resume-for-append.
//
// A fabric coordinator also appends one {lease} record per lease event, so
// its re-lease counters survive a coordinator kill. Restoring results skips
// them, so either kind of run can finish the other's journal.

// journalKind is the journal's record-log kind tag.
const journalKind = "campaign-journal"

type journalHeader struct {
	Scenarios int    `json:"scenarios"`
	Hash      string `json:"hash"`
	// Set is the normalized scenario set itself, so a restarted daemon can
	// rediscover what a journal was running without any out-of-band spec.
	// Optional on read — callers that hold the set can resume without it —
	// but required by ScanJournal.
	Set []Scenario `json:"set,omitempty"`
}

// journalRecord is one record past the header: a completed scenario
// (Result set) or a fabric lease event (Lease set), never both.
type journalRecord struct {
	Index  int         `json:"index"`
	Result *Result     `json:"result"`
	Lease  *LeaseEvent `json:"lease,omitempty"`
}

// Lease event names.
const (
	LeaseGranted = "granted"
	LeaseExpired = "expired"
	// LeaseReleased is a re-lease: the shard going to a new worker after a
	// failed lease. The grant that follows it is recorded as well.
	LeaseReleased = "released"
)

// LeaseEvent is one lease-lifecycle record of a fabric coordinator: which
// event, which shard under which shard size, which worker, which attempt
// (0 = first grant; > 0 = a re-lease).
type LeaseEvent struct {
	Event     string `json:"event"`
	Shard     int    `json:"shard"`
	ShardSize int    `json:"shard_size"`
	Worker    string `json:"worker"`
	Attempt   int    `json:"attempt"`
}

// normalizeSet returns an index-normalized copy of the scenario set.
func normalizeSet(scs []Scenario) []Scenario {
	norm := make([]Scenario, len(scs))
	copy(norm, scs)
	for i := range norm {
		norm[i].Normalize(i)
	}
	return norm
}

// SetHash fingerprints a whole normalized scenario set — the identity a
// campaign journal binds itself to, so a journal can only ever resume the
// campaign it was written for.
func SetHash(scs []Scenario) string {
	data, err := json.Marshal(normalizeSet(scs))
	if err != nil {
		// Scenario is a plain struct of scalars; Marshal cannot fail.
		panic("campaign: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// ScenarioKeyVersion is the engine-version salt folded into ScenarioKey. It
// rolls whenever scenario execution semantics change (new kinds, new knobs,
// altered defaults), so a key means "this spec under this engine" — the one
// canonical identity shared by fuzz-corpus dedup and the result cache.
// Stale keys from an older engine simply never match, which is the safe
// failure mode for both.
const ScenarioKeyVersion = "dmafault-engine-v2"

// Digest is the full 32-byte content address of a scenario: SHA-256 over
// the engine-version salt plus the canonical (normalized, ID-blanked) spec
// encoding. The persistent result store keys records by the full digest —
// at store scale the 8-byte truncation that suffices for log lines is too
// collision-prone to gate result replay.
type Digest [32]byte

// String renders the full 64-hex-char digest.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Short is the 16-hex-char truncation used for logs and fuzz-corpus dedup
// keys — human-scale UX, not a persistence identity.
func (d Digest) Short() string { return hex.EncodeToString(d[:8]) }

// ScenarioDigest fingerprints one scenario independently of its position in
// a set: the engine-version salt plus the full normalized spec (seed, every
// knob, fault plan, timeout) with the index-derived ID blanked. Scenarios
// that are byte-equal specs share a digest across jobs and campaigns — the
// identity the persistent result store replays cached results by.
func ScenarioDigest(s Scenario) Digest {
	s.Normalize(0)
	s.ID = ""
	data, err := json.Marshal(&s)
	if err != nil {
		panic("campaign: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(ScenarioKeyVersion))
	h.Write([]byte{'\n'})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

// ScenarioKey is the short display form of ScenarioDigest — the identity
// the fuzzer dedups mutants by, where 64 bits is plenty and log lines stay
// readable. Anything persistent keys by the full Digest instead.
func ScenarioKey(s Scenario) string {
	return ScenarioDigest(s).Short()
}

// Journal appends records to an open journal file.
type Journal struct {
	log *recordlog.Log
	st  *JournalState
}

// OpenJournal creates (resume=false) or reopens (resume=true) the journal
// at path for the given scenario set. A fresh open truncates and writes the
// header; a resume validates the header and records against the set,
// truncates any torn final record, and positions for append. Resuming a
// path that does not exist falls back to a fresh journal, so `--resume` on
// a first run just works. State reports what the open restored.
func OpenJournal(path string, scs []Scenario, resume bool) (*Journal, error) {
	jr := newJournalReader(scs)
	hdr, err := json.Marshal(journalHeader{Scenarios: len(scs), Hash: jr.hash, Set: normalizeSet(scs)})
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	l, err := recordlog.Open(path, journalKind, hdr, !resume, jr.header, jr.record)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	jr.st.Path = path
	return &Journal{log: l, st: &jr.st}, nil
}

// State is what opening the journal restored: nothing for a fresh journal,
// every intact record of a resumed one. Its Restored map is the value for
// Engine.Completed.
func (j *Journal) State() *JournalState { return j.st }

// Record appends one completed scenario, written from the encoding the
// result holds. Each record is one append to the record log, so concurrent
// workers never interleave bytes.
func (j *Journal) Record(index int, r *Result) error {
	var buf [128]byte
	head := strconv.AppendInt(append(buf[:0], `{"index":`...), int64(index), 10)
	head, rest, err := r.JSONParts(append(head, `,"result":`...))
	if err != nil {
		return err
	}
	_, err = j.log.Append(head, rest, []byte("}"))
	return err
}

// Lease appends one fabric lease event.
func (j *Journal) Lease(e LeaseEvent) error {
	return j.append(struct {
		Lease *LeaseEvent `json:"lease"`
	}{&e})
}

func (j *Journal) append(rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = j.log.Append(b)
	return err
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.log.Close() }

// LoadJournal reads the completed-scenario records of a previous run,
// validated against the scenario set, keyed by index — the value for
// Engine.Completed. A missing file yields an empty map (nothing restored);
// a torn final record is ignored.
func LoadJournal(path string, scs []Scenario) (map[int]*Result, error) {
	jr := newJournalReader(scs)
	if err := recordlog.Scan(path, journalKind, jr.header, jr.record); errors.Is(err, fs.ErrNotExist) {
		return map[int]*Result{}, nil
	} else if err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return jr.st.Restored, nil
}

// journalReader validates a journal and restores its records. Built from a
// scenario set it checks the header against that set; built empty it adopts
// the header's embedded set, which must match the header.
type journalReader struct {
	n    int
	hash string
	st   JournalState
	// countOnly skips decoding results: the reader only counts the
	// distinct scenario indexes done (ScanJournalProgress).
	countOnly bool
	done      []bool
}

func newJournalReader(scs []Scenario) *journalReader {
	return &journalReader{n: len(scs), hash: SetHash(scs), st: JournalState{Restored: map[int]*Result{}}}
}

func (jr *journalReader) header(b []byte) error {
	var hdr journalHeader
	if err := json.Unmarshal(b, &hdr); err != nil {
		return fmt.Errorf("bad header: %w", err)
	}
	if jr.hash == "" {
		if len(hdr.Set) == 0 {
			return errors.New("no embedded scenario set")
		}
		jr.n, jr.hash, jr.st.Scenarios = len(hdr.Set), SetHash(hdr.Set), hdr.Set
	}
	if hdr.Scenarios != jr.n {
		return fmt.Errorf("%d scenarios, campaign has %d", hdr.Scenarios, jr.n)
	}
	if hdr.Hash != jr.hash {
		return fmt.Errorf("scenario set hash %s, campaign is %s", hdr.Hash, jr.hash)
	}
	return nil
}

// presence decodes a JSON value to whether it is non-null, building
// nothing.
type presence bool

func (p *presence) UnmarshalJSON(b []byte) error {
	*p = string(b) != "null"
	return nil
}

func (jr *journalReader) record(_ int64, b []byte) error {
	var rec journalRecord
	var hasResult bool
	var err error
	if jr.countOnly {
		var shape struct {
			Index  int         `json:"index"`
			Result presence    `json:"result"`
			Lease  *LeaseEvent `json:"lease,omitempty"`
		}
		err = json.Unmarshal(b, &shape)
		rec.Index, rec.Lease, hasResult = shape.Index, shape.Lease, bool(shape.Result)
	} else {
		err = json.Unmarshal(b, &rec)
		hasResult = rec.Result != nil
	}
	if err != nil {
		return fmt.Errorf("bad record: %w", err)
	}
	switch {
	case rec.Lease != nil && hasResult:
		return errors.New("bad record: both a result and a lease event")
	case rec.Lease != nil:
		return jr.lease(rec.Lease)
	case !hasResult:
		return errors.New("bad record: neither a result nor a lease event")
	}
	if rec.Index < 0 || rec.Index >= jr.n {
		return fmt.Errorf("record index %d out of range", rec.Index)
	}
	if jr.countOnly {
		if jr.done == nil {
			jr.done = make([]bool, jr.n)
		}
		if !jr.done[rec.Index] {
			jr.done[rec.Index] = true
			jr.st.Done++
		}
		return nil
	}
	if _, ok := jr.st.Restored[rec.Index]; !ok {
		jr.st.Done++
	}
	// A journal is read, not trusted: its result is encoded anew.
	rec.Result.Encode()
	jr.st.Restored[rec.Index] = rec.Result
	return nil
}

// lease counts one lease record. Every lease record of a journal must use
// one shard size and name a shard of the set under it.
func (jr *journalReader) lease(e *LeaseEvent) error {
	if e.ShardSize <= 0 || e.Shard < 0 || jr.n == 0 || e.Shard > (jr.n-1)/e.ShardSize || e.Attempt < 0 {
		return fmt.Errorf("bad lease record: shard %d of size %d, attempt %d, in a set of %d",
			e.Shard, e.ShardSize, e.Attempt, jr.n)
	}
	if jr.st.ShardSize != 0 && e.ShardSize != jr.st.ShardSize {
		return fmt.Errorf("lease records with shard sizes %d and %d", jr.st.ShardSize, e.ShardSize)
	}
	switch e.Event {
	case LeaseGranted:
		jr.st.Granted++
	case LeaseExpired:
		jr.st.Expired++
	case LeaseReleased:
		jr.st.Released++
	default:
		return fmt.Errorf("bad lease record: unknown event %q", e.Event)
	}
	jr.st.ShardSize = e.ShardSize
	return nil
}

// JournalState is what reading a journal recovers: the scenario set it was
// opened for (from the embedded header copy, when read by ScanJournal),
// every intact completed-scenario record, and the counts of a fabric
// coordinator's lease records.
type JournalState struct {
	Path      string
	Scenarios []Scenario
	// Restored holds the completed scenarios' results by index (empty
	// when read by ScanJournalProgress).
	Restored map[int]*Result
	// Done counts the scenarios the journal records as completed.
	Done int
	// Granted, Expired and Released count the lease records by event.
	Granted, Expired, Released int
	// ShardSize is the shard size every lease record carries (0: no lease
	// records, so the journal binds no shard boundaries).
	ShardSize int
}

// Unfinished reports whether the journal records fewer completions than the
// set has scenarios — the condition under which a service restart resumes
// the campaign.
func (st *JournalState) Unfinished() bool { return st.Done < len(st.Scenarios) }

// ScanJournal reads a journal knowing nothing but its path — the boot-time
// crash-recovery primitive. The scenario set comes from the header's
// embedded copy (validated against the header hash, so a hand-edited set
// cannot silently resume); journals without an embedded set return an error
// and are left for out-of-band resume via LoadJournal.
func ScanJournal(path string) (*JournalState, error) {
	return scanJournal(path, false)
}

// ScanJournalProgress is ScanJournal for boot recovery, which needs only
// the embedded set and how many of its scenarios are done: it validates the
// same records but decodes no result, so Restored stays empty. The
// resuming OpenJournal decodes them, once.
func ScanJournalProgress(path string) (*JournalState, error) {
	return scanJournal(path, true)
}

func scanJournal(path string, countOnly bool) (*JournalState, error) {
	jr := &journalReader{st: JournalState{Path: path, Restored: map[int]*Result{}}, countOnly: countOnly}
	if err := recordlog.Scan(path, journalKind, jr.header, jr.record); err != nil {
		return nil, fmt.Errorf("campaign: journal: %w", err)
	}
	return &jr.st, nil
}
