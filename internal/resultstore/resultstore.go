// Package resultstore is the persistent, content-addressed scenario-result
// cache behind incremental campaigns: an append-only record log keyed by
// the full 32-byte campaign.Digest, modeled on ninja's build/deps logs.
// Re-running a preset, resuming a campaign, or sweeping a grid that
// overlaps an earlier one only executes scenarios whose digest has never
// been recorded — everything else replays from the log byte-identically.
//
// The file is an internal/recordlog log of kind "result-store" whose header
// is campaign.ScenarioKeyVersion at creation time. Each record's payload is
//
//	[8]byte engine salt (truncated SHA-256 of the key version the record
//	        was written under)
//	[32]byte scenario digest
//	canonical JSON campaign.Result, ID blanked
//
// The last record for a digest wins. Open loads a hash-first in-memory
// index (digest → record offset); Get reads and decodes the JSON on
// demand, so a warm store holds one map entry per record, not one decoded
// Result.
//
// Records are written from a result's own canonical encoding (Put writes
// the bytes the result holds, never a second encoding), and Get hands the
// bytes it read to the result it decodes, which keeps them as its encoding:
// a replayed result is journaled, hashed and summarized from the record
// itself. Those bytes are trusted as this build's canonical encoding, so a
// change to Result's JSON shape must roll campaign.ScenarioKeyVersion,
// which turns every older record stale.
//
// Engine-version invalidation is belt and braces: the salt folded into
// every digest means a stale-engine record can never be looked up, and the
// per-record salt lets Compact *identify* and drop those unreachable
// records (plus superseded ones) when rewriting the log offline.
package resultstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"dmafault/internal/campaign"
	"dmafault/internal/recordlog"
)

const (
	kind = "result-store"
	// recordFixed is the fixed-size payload prefix: salt + digest.
	recordFixed = saltLen + digestLen
	saltLen     = 8
	digestLen   = 32
)

// engineSalt derives the 8-byte per-record salt for a key version.
func engineSalt(keyVersion string) [saltLen]byte {
	sum := sha256.Sum256([]byte(keyVersion))
	var s [saltLen]byte
	copy(s[:], sum[:saltLen])
	return s
}

// currentSalt is the salt stamped on records written by this engine build.
var currentSalt = engineSalt(campaign.ScenarioKeyVersion)

// entry locates one live record's JSON inside the log.
type entry struct {
	off int64 // JSON start
	n   int   // JSON length
}

// Store is an open result log. It implements campaign.Store and is safe
// for concurrent use by engine workers (Get under a read lock with ReadAt,
// Put appending under the write lock).
type Store struct {
	mu    sync.RWMutex
	log   *recordlog.Log
	path  string
	index map[campaign.Digest]entry

	stale      int // records skipped at open: engine salt mismatch
	superseded int // records overwritten by a later record for the same digest

	hits   atomic.Uint64
	misses atomic.Uint64
	stores atomic.Uint64
}

// Open creates (missing or empty path) or reopens a result log: every
// intact record is indexed hash-first (last record per digest wins;
// stale-engine records are counted but not indexed), and a torn or corrupt
// tail is truncated so the file is append-clean.
func Open(path string) (*Store, error) {
	st := &Store{path: path, index: map[campaign.Digest]entry{}}
	var err error
	st.log, err = recordlog.Open(path, kind, []byte(campaign.ScenarioKeyVersion), false, nil,
		func(off int64, rec []byte) error {
			if len(rec) < recordFixed {
				return errors.New("short result record")
			}
			if [saltLen]byte(rec) != currentSalt {
				st.stale++
				return nil
			}
			st.note(campaign.Digest(rec[saltLen:recordFixed]), entry{off: off + recordFixed, n: len(rec) - recordFixed})
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return st, nil
}

// note indexes a current-engine record, counting the one it supersedes.
func (st *Store) note(d campaign.Digest, e entry) {
	if _, dup := st.index[d]; dup {
		st.superseded++
	}
	st.index[d] = e
}

// Get implements campaign.Store: look the digest up hash-first, then read
// and decode the record payload on demand. A record that fails to read or
// decode counts as a miss (the caller simply executes the scenario).
func (st *Store) Get(d campaign.Digest) (*campaign.Result, bool) {
	st.mu.RLock()
	e, ok := st.index[d]
	buf := make([]byte, e.n)
	if ok {
		ok = st.log.ReadAt(buf, e.off) == nil
	}
	st.mu.RUnlock()
	var r *campaign.Result
	if ok {
		// The result keeps buf as its encoding: a replay writes the bytes
		// just read.
		var err error
		r, err = campaign.DecodeResult(buf)
		ok = err == nil
	}
	if !ok {
		st.misses.Add(1)
		return nil, false
	}
	st.hits.Add(1)
	return r, true
}

// Put implements campaign.Store: append one record and point the index at
// it. The last record for a digest wins, so overwriting is append-only too.
func (st *Store) Put(d campaign.Digest, r *campaign.Result) error {
	var buf [64]byte
	head, rest, err := r.JSONParts(buf[:0])
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	off, err := st.log.Append(currentSalt[:], d[:], head, rest)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	st.note(d, entry{off: off + recordFixed, n: len(head) + len(rest)})
	st.stores.Add(1)
	return nil
}

// Len is the number of live (indexed) records.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.index)
}

// Stats is the store's observable state: log geometry plus the session's
// hit/miss/store counters (counters survive Clear — they are service-plane
// telemetry, not log contents).
type Stats struct {
	Path              string `json:"path"`
	Records           int    `json:"records"`
	StaleRecords      int    `json:"stale_records"`
	SupersededRecords int    `json:"superseded_records"`
	Bytes             int64  `json:"bytes"`
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	Stores            uint64 `json:"stores"`
}

// Stats snapshots the store.
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return Stats{
		Path:              st.path,
		Records:           len(st.index),
		StaleRecords:      st.stale,
		SupersededRecords: st.superseded,
		Bytes:             st.log.Size(),
		Hits:              st.hits.Load(),
		Misses:            st.misses.Load(),
		Stores:            st.stores.Load(),
	}
}

// Clear drops every record: the log is truncated back to its header and
// the index emptied. Hit/miss/store counters keep counting.
func (st *Store) Clear() (dropped int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.log.Reset(); err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	dropped = len(st.index)
	st.index = map[campaign.Digest]entry{}
	st.stale, st.superseded = 0, 0
	return dropped, nil
}

// Close closes the log file.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.log.Close()
}

// CompactStats reports what an offline compaction did.
type CompactStats struct {
	RecordsBefore     int   `json:"records_before"`
	RecordsAfter      int   `json:"records_after"`
	DroppedStale      int   `json:"dropped_stale"`
	DroppedSuperseded int   `json:"dropped_superseded"`
	BytesBefore       int64 `json:"bytes_before"`
	BytesAfter        int64 `json:"bytes_after"`
}

// Compact rewrites the log at path offline (no Store may have it open),
// keeping only the latest current-engine record per digest, in the order
// the surviving records appear in the old log — ninja's recompaction, with
// the engine salt standing in for the mtime staleness check. The new log is
// written beside the old one and renamed into place, so a crash mid-compact
// leaves the original intact.
func Compact(path string) (CompactStats, error) {
	var cs CompactStats
	fi, err := os.Stat(path)
	if err != nil {
		return cs, fmt.Errorf("resultstore: %w", err)
	}
	cs.BytesBefore = fi.Size()
	src, err := Open(path)
	if err != nil {
		return cs, err
	}
	defer src.Close()
	cs.DroppedStale, cs.DroppedSuperseded = src.stale, src.superseded
	cs.RecordsBefore = len(src.index) + src.stale + src.superseded
	cs.RecordsAfter = len(src.index)
	digests := make([]campaign.Digest, 0, len(src.index))
	for d := range src.index {
		digests = append(digests, d)
	}
	sort.Slice(digests, func(i, j int) bool { return src.index[digests[i]].off < src.index[digests[j]].off })
	if cs.BytesAfter, err = src.writeLog(path, digests); err != nil {
		return cs, fmt.Errorf("resultstore: compact: %w", err)
	}
	return cs, nil
}

// writeLog writes the live records for digests, in order, into a fresh log
// beside path, renames it over path and returns its size.
func (st *Store) writeLog(path string, digests []campaign.Digest) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		return 0, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	out, err := recordlog.Open(tmp.Name(), kind, []byte(campaign.ScenarioKeyVersion), true, nil, nil)
	if err != nil {
		return 0, err
	}
	for _, d := range digests {
		e := st.index[d]
		buf := make([]byte, e.n)
		if err = st.log.ReadAt(buf, e.off); err != nil {
			break
		}
		if _, err = out.Append(currentSalt[:], d[:], buf); err != nil {
			break
		}
	}
	if err == nil {
		err = out.Sync()
	}
	size := out.Size()
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return size, os.Rename(tmp.Name(), path)
}
