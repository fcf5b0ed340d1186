package faultinject

import (
	"fmt"
	"strconv"
	"strings"
)

// The plan engine: the spec grammar, rule validation, and the seeded
// per-class decision stream with its counters. It is shared by every fault
// vocabulary — this package's hardware classes and internal/netchaos's
// transport classes — which differ only in their class-name tables.

// Vocabulary is one family of fault classes: the package its errors name
// and the spec name of each class, indexed by class.
type Vocabulary struct {
	Pkg   string
	Names []string
}

// Name spells class c, or class(N) outside the table.
func (v *Vocabulary) Name(c uint8) string {
	if int(c) < len(v.Names) {
		return v.Names[c]
	}
	return fmt.Sprintf("class(%d)", c)
}

// lookup resolves a spec name back to its class.
func (v *Vocabulary) lookup(name string) (uint8, bool) {
	for i, n := range v.Names {
		if n == name {
			return uint8(i), true
		}
	}
	return 0, false
}

// ClassSet constrains a fault-class type: a small integer whose Vocabulary
// method returns its class-name table (the receiver's value is unused).
type ClassSet interface {
	~uint8
	Vocabulary() *Vocabulary
}

func vocabularyOf[C ClassSet]() *Vocabulary {
	var c C
	return c.Vocabulary()
}

// RuleOf injects one class at a rate, at fixed opportunity ordinals, or
// both.
type RuleOf[C ClassSet] struct {
	Class C `json:"class"`
	// Rate is the per-opportunity injection probability in [0, 1].
	Rate float64 `json:"rate,omitempty"`
	// Points are 1-based opportunity ordinals that always inject,
	// independent of the salt (so "fail the 1st alloc" fails every attempt).
	Points []uint64 `json:"points,omitempty"`
}

// PlanOf is a serializable fault plan: the decision seed plus the
// per-class rules. The zero Salt is attempt 0; the campaign engine bumps it
// per retry so rate-based decisions are redrawn.
type PlanOf[C ClassSet] struct {
	Seed  int64       `json:"seed,omitempty"`
	Salt  int64       `json:"salt,omitempty"`
	Rules []RuleOf[C] `json:"rules"`
}

// Validate rejects rules the engine cannot honor.
func (p *PlanOf[C]) Validate() error {
	if p == nil {
		return nil
	}
	v := vocabularyOf[C]()
	for _, r := range p.Rules {
		if int(r.Class) >= len(v.Names) {
			return fmt.Errorf("%s: unknown class %d", v.Pkg, r.Class)
		}
		name := v.Names[r.Class]
		// Written so that NaN, which compares false either way, fails too.
		if !(r.Rate >= 0 && r.Rate <= 1) {
			return fmt.Errorf("%s: %s rate %v outside [0,1]", v.Pkg, name, r.Rate)
		}
		if r.Rate == 0 && len(r.Points) == 0 {
			return fmt.Errorf("%s: %s rule has neither rate nor points", v.Pkg, name)
		}
		for _, pt := range r.Points {
			if pt == 0 {
				return fmt.Errorf("%s: %s point ordinals are 1-based", v.Pkg, name)
			}
		}
	}
	return nil
}

// Parse compiles the compact rule grammar used by flags and scenario specs
// over C's vocabulary: comma-separated entries of the form
//
//	class:RATE          inject at probability RATE per opportunity
//	class@P1+P2+...     inject at the P1st, P2nd, ... opportunity (1-based)
//	class:RATE@P1+...   both
//
// e.g. "dma-corrupt:0.01,alloc-fail@1,scenario-panic:0.2". Seed and Salt
// are left zero; callers bind them.
func Parse[C ClassSet](spec string) (*PlanOf[C], error) {
	v := vocabularyOf[C]()
	plan := &PlanOf[C]{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		rest := entry
		var rule RuleOf[C]
		if at := strings.IndexByte(rest, '@'); at >= 0 {
			for _, p := range strings.Split(rest[at+1:], "+") {
				n, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad point %q in %q", v.Pkg, p, entry)
				}
				rule.Points = append(rule.Points, n)
			}
			rest = rest[:at]
		}
		if colon := strings.IndexByte(rest, ':'); colon >= 0 {
			rate, err := strconv.ParseFloat(strings.TrimSpace(rest[colon+1:]), 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad rate in %q", v.Pkg, entry)
			}
			rule.Rate = rate
			rest = rest[:colon]
		}
		c, ok := v.lookup(strings.TrimSpace(rest))
		if !ok {
			return nil, fmt.Errorf("%s: unknown class %q (have %s)",
				v.Pkg, strings.TrimSpace(rest), strings.Join(v.Names, ", "))
		}
		rule.Class = C(c)
		plan.Rules = append(plan.Rules, rule)
	}
	if len(plan.Rules) == 0 {
		return nil, fmt.Errorf("%s: empty spec %q", v.Pkg, spec)
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// Stream is a compiled plan: every decision is a pure function of (plan
// seed, plan salt, scope, class, per-class opportunity ordinal). It is not
// safe for concurrent use; callers that share one serialize it.
type Stream[C ClassSet] struct {
	seed    uint64
	classes []classStream
}

// classStream is one class's rule, ready for O(1) decisions, and its
// counters.
type classStream struct {
	active    bool
	rate      float64
	points    map[uint64]bool
	ops, hits uint64
}

// Compile builds the stream of a plan for one scope. A nil plan yields a
// stream that counts opportunities and never fires.
func Compile[C ClassSet](plan *PlanOf[C], scope int64) Stream[C] {
	s := Stream[C]{classes: make([]classStream, len(vocabularyOf[C]().Names))}
	if plan == nil {
		return s
	}
	s.seed = splitmix(splitmix(uint64(plan.Seed)) ^ splitmix(uint64(plan.Salt)+0x5a17) ^ uint64(scope))
	for _, r := range plan.Rules {
		c := &s.classes[r.Class]
		c.active = true
		c.rate = r.Rate
		if len(r.Points) > 0 {
			if c.points == nil {
				c.points = make(map[uint64]bool, len(r.Points))
			}
			for _, p := range r.Points {
				c.points[p] = true
			}
		}
	}
	return s
}

// splitmix is the splitmix64 finalizer: a bijective avalanche mix.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decision is the per-opportunity hash stream for a class.
func (s *Stream[C]) decision(c C, n uint64) uint64 {
	return splitmix(s.seed ^ splitmix(uint64(c+1)<<32^n))
}

// Fire counts one opportunity of the class and decides whether to inject.
func (s *Stream[C]) Fire(c C) bool {
	if int(c) >= len(s.classes) {
		return false
	}
	r := &s.classes[c]
	r.ops++
	if !r.active {
		return false
	}
	n := r.ops
	hit := r.points[n]
	if !hit && r.rate > 0 {
		// 53-bit uniform draw in [0,1).
		hit = float64(s.decision(c, n)>>11)/(1<<53) < r.rate
	}
	if hit {
		r.hits++
	}
	return hit
}

// Draw is a secondary hash of the class's latest opportunity, keyed by k:
// where an injection lands (which byte, which digit) without consuming an
// opportunity of its own.
func (s *Stream[C]) Draw(c C, k uint64) uint64 {
	return splitmix(s.decision(c, s.classes[c].ops) ^ k)
}

// Counts returns (opportunities, injections) for a class.
func (s *Stream[C]) Counts(c C) (ops, injected uint64) {
	if int(c) >= len(s.classes) {
		return 0, 0
	}
	return s.classes[c].ops, s.classes[c].hits
}
