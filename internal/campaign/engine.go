package campaign

import (
	"context"
	"fmt"
	"regexp"
	"runtime/debug"
	"time"

	"dmafault/internal/obs"
	"dmafault/internal/par"
)

// Retry policy. Only failures wrapping faultinject.ErrTransient (injected
// allocator pressure and friends) are retried; real scenario errors fail
// fast.
const (
	// DefaultMaxRetries bounds extra attempts per transient-failing scenario.
	DefaultMaxRetries = 3
	// DefaultRetryBackoff is the wall-clock delay before the first retry;
	// it doubles per attempt up to MaxRetryBackoff.
	DefaultRetryBackoff = 2 * time.Millisecond
	// MaxRetryBackoff caps the exponential backoff.
	MaxRetryBackoff = 250 * time.Millisecond
)

// Engine shards scenarios across a worker pool. Each worker boots fully
// isolated core.Systems, so shards are embarrassingly parallel; results are
// written into index-addressed slots (par's contract) and aggregated in
// input order, making the summary byte-identical at any worker count.
//
// The engine hardens execution per scenario: a panic becomes a structured
// Result (Outcome "panic" with a sanitized stack) instead of a process
// crash, a TimeoutMS deadline becomes Outcome "timeout", and failures
// wrapping faultinject.ErrTransient are retried with capped exponential
// backoff. None of this perturbs determinism — outcome classification and
// retry decisions derive from the scenario's own seeded execution.
type Engine struct {
	// Workers is the pool size (<= 0: one per schedulable CPU).
	Workers int
	// OnResult, if set, observes each finished scenario (called from worker
	// goroutines; index identifies the scenario). Used for progress output.
	OnResult func(index int, r *Result)
	// OnClaim, if set, observes each scenario the moment a worker claims it
	// (called from worker goroutines, before execution; restored indexes are
	// never claimed). Together with OnResult this is the engine's progress
	// heartbeat: a supervisor that sees neither callback for longer than its
	// stall budget knows the job has wedged, not merely slowed.
	OnClaim func(index int)
	// Cache, if set, is the content-addressed result store consulted before
	// each scenario executes: a hit replays the recorded result (re-stamped
	// with the position-derived ID, journaled, counted, and aggregated
	// exactly like an executed one — the summary is byte-identical at any
	// worker count), a miss executes normally and appends the result if
	// Cacheable.
	Cache Store
	// OnCacheHit, if set, observes each scenario served from Cache (called
	// from worker goroutines, before OnResult fires for the same index).
	// Hit/miss tallies live here and in the Store — never in the Summary,
	// which must stay byte-identical between cached and uncached runs.
	OnCacheHit func(index int)
	// Journal, if set, records each completed scenario as a durable record,
	// enabling crash/kill resume (see OpenJournal). Cancelled
	// scenarios are never journaled — on resume they re-execute.
	Journal *Journal
	// Completed seeds results for already-finished scenario indexes (from
	// LoadJournal): those indexes are not re-executed, but their results
	// still aggregate, so a resumed campaign's summary is byte-identical to
	// an uninterrupted run's.
	Completed map[int]*Result
	// Obs, if set, mints wall-clock spans at campaign → scenario → attempt
	// granularity (plus retry-backoff waits) and fans them out to the
	// tracer's sinks. Spans are operator data on a separate plane: they never
	// enter the Summary, the journal, or any metric snapshot aggregated into
	// deterministic artifacts (TestEngineObsDoesNotPerturbDeterminism pins
	// this). A nil tracer records nothing at zero cost.
	Obs *obs.Tracer
}

// Run executes the scenario set without external cancellation.
func (e Engine) Run(scenarios []Scenario) (*Summary, error) {
	return e.RunCtx(context.Background(), scenarios)
}

// RunCtx normalizes, validates, executes, and aggregates the scenario set.
// Scenario execution failures land in the per-result Err field and the
// summary's error tally; only an invalid spec or ctx cancellation aborts
// the run (already-claimed scenarios finish and are journaled first).
func (e Engine) RunCtx(ctx context.Context, scenarios []Scenario) (*Summary, error) {
	scs, err := NormalizeSet(scenarios)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(scs))
	for i, r := range e.Completed {
		if i >= 0 && i < len(results) {
			results[i] = r
		}
	}
	root := e.Obs.Start("campaign",
		obs.Af("scenarios", "%d", len(scs)),
		obs.Af("restored", "%d", len(e.Completed)))
	err = par.ForEachCtx(ctx, len(scs), e.Workers, func(ctx context.Context, i int) error {
		if results[i] != nil {
			return nil // restored from the journal
		}
		if e.OnClaim != nil {
			e.OnClaim(i)
		}
		sp := root.Child("scenario",
			obs.A("id", scs[i].ID),
			obs.A("kind", string(scs[i].Kind)),
			obs.Af("index", "%d", i))
		var r *Result
		var err error
		var digest Digest
		if e.Cache != nil {
			digest = ScenarioDigest(scs[i])
			if hit, ok := e.Cache.Get(digest); ok {
				r = cacheReplay(hit, &scs[i])
				sp.SetAttr("cached", "true")
				if e.OnCacheHit != nil {
					e.OnCacheHit(i)
				}
			}
		}
		if r == nil {
			r, err = e.execute(ctx, scs[i], sp)
			if err == nil && r != nil && e.Cache != nil {
				// A failing store is a real error (disk full, torn file),
				// surfaced like a journal failure rather than silently
				// degrading into a cache that loses records.
				err = PutResult(e.Cache, digest, r)
			}
		}
		if err != nil {
			sp.End(obs.A("outcome", "error"))
			return err
		}
		if r == nil {
			// Cancelled mid-attempt: leave the slot empty and unjournaled
			// so a resume re-executes the scenario from scratch.
			sp.End(obs.A("outcome", "cancelled"))
			return nil
		}
		sp.End(obs.A("outcome", ResultOutcome(r)))
		if e.Journal != nil {
			if err := e.Journal.Record(i, r); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
		}
		results[i] = r
		if e.OnResult != nil {
			e.OnResult(i, r)
		}
		return nil
	})
	if err != nil {
		root.End(obs.A("outcome", "error"))
		return nil, err
	}
	for _, r := range results {
		if r != nil {
			continue
		}
		// Cancellation can land after every scenario is claimed, in which
		// case ForEachCtx reports success with empty slots left behind; a
		// summary over them would misreport the campaign as complete.
		if err = ctx.Err(); err == nil {
			err = context.Canceled
		}
		root.End(obs.A("outcome", "error"))
		return nil, err
	}
	root.End()
	return Aggregate(results), nil
}

// ResultOutcome labels a result with the result's classification: the
// explicit Outcome (panic, timeout), else error/miss/ok.
func ResultOutcome(r *Result) string {
	switch {
	case r.Outcome != "":
		return r.Outcome
	case r.Err != "":
		return "error"
	case !r.Success:
		return "miss"
	default:
		return "ok"
	}
}

// execute runs one scenario through the guarded attempt loop, retrying
// transient injected failures with capped exponential backoff. A nil result
// (no error) means the context fired mid-attempt. Each attempt and each
// backoff wait gets a wall-clock span under the scenario span sp (which may
// be nil).
func (e Engine) execute(ctx context.Context, s Scenario, sp *obs.ActiveSpan) (*Result, error) {
	backoff := DefaultRetryBackoff
	var r *Result
	for attempt := 0; ; attempt++ {
		asp := sp.Child("attempt", obs.Af("attempt", "%d", attempt))
		nr, err := e.guarded(ctx, s, attempt)
		switch {
		case err != nil:
			asp.End(obs.A("outcome", "error"))
		case nr == nil:
			asp.End(obs.A("outcome", "cancelled"))
		default:
			asp.End(obs.A("outcome", ResultOutcome(nr)))
		}
		if err != nil || nr == nil {
			return nil, err
		}
		nr.Retries = attempt
		r = nr
		if !(r.transient && attempt < DefaultMaxRetries) {
			return r, nil
		}
		bsp := sp.Child("retry-backoff", obs.Af("attempt", "%d", attempt))
		select {
		case <-ctx.Done():
			// The last attempt's result is real and completed: keep it.
			bsp.End(obs.A("outcome", "cancelled"))
			return r, nil
		case <-time.After(backoff):
			bsp.End()
		}
		if backoff *= 2; backoff > MaxRetryBackoff {
			backoff = MaxRetryBackoff
		}
	}
}

// guarded runs one attempt in its own goroutine so a panic is contained and
// a TimeoutMS deadline can abandon it. A panicking attempt yields a Result
// with Outcome "panic" and a sanitized stack; an expired deadline yields
// Outcome "timeout" (the abandoned goroutine drains into a buffered
// channel). A nil result (no error) means ctx fired first.
func (e Engine) guarded(ctx context.Context, s Scenario, attempt int) (*Result, error) {
	type outcome struct {
		r   *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.Normalize(0)
				r := s.newResult()
				r.Outcome = OutcomePanic
				r.Err = fmt.Sprintf("panic: %v", p)
				r.Stack = sanitizeStack(debug.Stack())
				done <- outcome{r: r}
			}
		}()
		r, err := runAttempt(ctx, s, attempt)
		done <- outcome{r: r, err: err}
	}()
	var timeout <-chan time.Time
	if s.TimeoutMS > 0 {
		t := time.NewTimer(time.Duration(s.TimeoutMS) * time.Millisecond)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case o := <-done:
		return o.r, o.err
	case <-timeout:
		s.Normalize(0)
		r := s.newResult()
		r.Outcome = OutcomeTimeout
		r.Err = fmt.Sprintf("campaign: scenario exceeded %dms deadline", s.TimeoutMS)
		return r, nil
	case <-ctx.Done():
		return nil, nil
	}
}

// Stack traces vary by address-space layout and goroutine numbering, never
// by scenario content; normalizing both keeps panic results byte-identical
// across runs and worker counts.
var (
	stackGoroutineRE   = regexp.MustCompile(`(?m)^goroutine \d+ .*$`)
	stackInGoroutineRE = regexp.MustCompile(`in goroutine \d+`)
	stackHexRE         = regexp.MustCompile(`0x[0-9a-f]+`)
)

func sanitizeStack(stack []byte) string {
	s := stackGoroutineRE.ReplaceAllString(string(stack), "goroutine N [running]:")
	s = stackInGoroutineRE.ReplaceAllString(s, "in goroutine N")
	return stackHexRE.ReplaceAllString(s, "0x?")
}
