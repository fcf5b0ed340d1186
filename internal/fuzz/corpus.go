package fuzz

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"dmafault/internal/campaign"
	"dmafault/internal/recordlog"
)

// Corpus persistence is an internal/recordlog log whose header is the
// ScenarioKeyVersion it was written under — a corpus written under a
// different engine version does not resume. Every record is one JSON object
// of one of three shapes:
//
//	{"add": <entry>}                     a scenario that produced a novel signature
//	{"stat": {"key","execs","yield"}}    absolute scheduling counters for one entry
//	{"min": {"key","scenario"}}          a minimized spec replacing an entry's scenario
//
// Replaying the records in order reconstructs the corpus exactly; a torn
// tail (the crash case) is dropped and truncated away on resume.

// corpusKind is the corpus's record-log kind tag.
const corpusKind = "fuzz-corpus"

// Entry is one corpus member: a scenario that, when executed, produced a
// signature no earlier execution had.
type Entry struct {
	// Key is the ScenarioKey of the scenario as discovered. It is the
	// entry's stable identity: minimization may later shrink Scenario (whose
	// own key then differs), but records keep referring to the discovery key.
	Key string `json:"key"`
	// Scenario is the reproducing spec, ID-blanked (position-independent).
	Scenario campaign.Scenario `json:"scenario"`
	// Signature is the coverage signature the scenario produced.
	Signature string `json:"sig"`
	// Round is the fuzz round that discovered the entry.
	Round int `json:"round"`
	// Execs counts children scheduled from this entry; Yield counts how many
	// of them produced novel signatures. Energy is derived from both.
	Execs int `json:"execs,omitempty"`
	Yield int `json:"yield,omitempty"`
	// Minimized marks Scenario as the minimization pass's reduced spec.
	Minimized bool `json:"minimized,omitempty"`

	dirty bool // stats changed since the last flush
}

// Energy is the entry's scheduling weight: proportional to its novel-
// signature rate, discounted by how often it has already been tried.
// Fresh entries (Execs 0) start at weight ≥ 1 so everything gets a chance.
func (e *Entry) Energy() float64 {
	return (1 + 3*float64(e.Yield)) / (1 + float64(e.Execs))
}

type corpusRecord struct {
	Add  *Entry      `json:"add,omitempty"`
	Stat *corpusStat `json:"stat,omitempty"`
	Min  *corpusMin  `json:"min,omitempty"`
}

type corpusStat struct {
	Key   string `json:"key"`
	Execs int    `json:"execs"`
	Yield int    `json:"yield,omitempty"`
}

type corpusMin struct {
	Key      string            `json:"key"`
	Scenario campaign.Scenario `json:"scenario"`
}

// Corpus is the in-memory corpus, optionally backed by an append-only file.
// It is single-writer: the fuzz loop mutates it only between engine batches.
type Corpus struct {
	entries []*Entry
	byKey   map[string]*Entry
	sigs    map[string]bool
	log     *recordlog.Log
}

// NewCorpus builds an empty, memory-only corpus.
func NewCorpus() *Corpus {
	return &Corpus{byKey: map[string]*Entry{}, sigs: map[string]bool{}}
}

// OpenCorpus creates (resume=false) or reloads (resume=true) a persistent
// corpus at path. Resuming a missing path falls back to a fresh corpus, so
// first runs just work; resuming a corpus written under a different
// ScenarioKeyVersion is an error (its dedup keys no longer mean anything).
func OpenCorpus(path string, resume bool) (*Corpus, error) {
	c := NewCorpus()
	var err error
	c.log, err = recordlog.Open(path, corpusKind, []byte(campaign.ScenarioKeyVersion), !resume,
		checkKeyVersion, c.replay)
	if err != nil {
		return nil, fmt.Errorf("fuzz: corpus: %w", err)
	}
	return c, nil
}

func checkKeyVersion(hdr []byte) error {
	if string(hdr) != campaign.ScenarioKeyVersion {
		return fmt.Errorf("written under engine %q, this engine is %q", hdr, campaign.ScenarioKeyVersion)
	}
	return nil
}

// replay applies one persisted record to the in-memory corpus.
func (c *Corpus) replay(_ int64, b []byte) error {
	var rec corpusRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return fmt.Errorf("bad record: %w", err)
	}
	switch {
	case rec.Add != nil:
		c.insert(rec.Add)
	case rec.Stat != nil:
		if e := c.byKey[rec.Stat.Key]; e != nil {
			e.Execs = rec.Stat.Execs
			e.Yield = rec.Stat.Yield
		}
	case rec.Min != nil:
		if e := c.byKey[rec.Min.Key]; e != nil {
			e.Scenario = rec.Min.Scenario
			e.Minimized = true
		}
	default:
		return errors.New("record with no recognized shape")
	}
	return nil
}

func (c *Corpus) insert(e *Entry) {
	if _, dup := c.byKey[e.Key]; dup {
		return
	}
	c.entries = append(c.entries, e)
	c.byKey[e.Key] = e
	c.sigs[e.Signature] = true
}

// append persists one record (no-op for memory-only corpora).
func (c *Corpus) append(rec corpusRecord) error {
	if c.log == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = c.log.Append(b)
	return err
}

// Add inserts a new entry and persists it.
func (c *Corpus) Add(e Entry) error {
	ent := e
	c.insert(&ent)
	return c.append(corpusRecord{Add: &ent})
}

// Observe credits one scheduled child to the named parent (and its novelty,
// if any). Unknown keys — seed scenarios have no parent — are ignored.
func (c *Corpus) Observe(parentKey string, novel bool) {
	e := c.byKey[parentKey]
	if e == nil {
		return
	}
	e.Execs++
	if novel {
		e.Yield++
	}
	e.dirty = true
}

// FlushStats persists the counters of every entry Observe touched since the
// last flush, in corpus order (deterministic bytes).
func (c *Corpus) FlushStats() error {
	for _, e := range c.entries {
		if !e.dirty {
			continue
		}
		e.dirty = false
		if err := c.append(corpusRecord{Stat: &corpusStat{Key: e.Key, Execs: e.Execs, Yield: e.Yield}}); err != nil {
			return err
		}
	}
	return nil
}

// ReplaceMinimized swaps an entry's scenario for its minimized spec and
// persists the replacement.
func (c *Corpus) ReplaceMinimized(key string, s campaign.Scenario) error {
	e := c.byKey[key]
	if e == nil {
		return fmt.Errorf("fuzz: corpus has no entry %s", key)
	}
	e.Scenario = s
	e.Minimized = true
	return c.append(corpusRecord{Min: &corpusMin{Key: key, Scenario: s}})
}

// Close closes the backing file, if any.
func (c *Corpus) Close() error {
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}

// Len returns the entry count.
func (c *Corpus) Len() int { return len(c.entries) }

// Entries returns the corpus in discovery order (shared slice; callers must
// not mutate).
func (c *Corpus) Entries() []*Entry { return c.entries }

// HasSignature reports whether sig has already been discovered.
func (c *Corpus) HasSignature(sig string) bool { return c.sigs[sig] }

// Signatures returns every discovered signature, sorted.
func (c *Corpus) Signatures() []string {
	return sortedKeys(c.sigs)
}

// PickParent draws one entry, weighted by Energy, from the given stream.
// Selection walks entries in discovery order, so equal corpora and equal
// rng states always pick the same parent. A nil return means the corpus is
// empty.
func (c *Corpus) PickParent(rng *rand.Rand) *Entry {
	if len(c.entries) == 0 {
		return nil
	}
	total := 0.0
	for _, e := range c.entries {
		total += e.Energy()
	}
	x := rng.Float64() * total
	for _, e := range c.entries {
		if x -= e.Energy(); x < 0 {
			return e
		}
	}
	return c.entries[len(c.entries)-1]
}

// MinimizationQueue returns the unminimized entries in discovery order.
func (c *Corpus) MinimizationQueue() []*Entry {
	var out []*Entry
	for _, e := range c.entries {
		if !e.Minimized {
			out = append(out, e)
		}
	}
	return out
}
