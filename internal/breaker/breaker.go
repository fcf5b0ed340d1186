// Package breaker is the circuit-breaker state machine behind the fabric's
// byzantine quarantine: one State guards one worker. Strikes accumulate
// until the policy's threshold opens the breaker; once the half-open wait
// has elapsed a single probe may run, and its verdict either closes the
// breaker or re-opens it at the verdict's tick.
//
// The package reads no clock: every transition that needs time takes the
// caller's tick. The fabric ticks in wall-clock nanoseconds; nothing here
// stops a caller ticking in virtual time instead. When strikes reset
// and when a probe is granted are decided by which methods the caller
// calls and when, not by options here (DESIGN.md §7).
package breaker

// Policy parameterizes every breaker of one caller.
type Policy struct {
	// Threshold is the strikes that open a closed breaker.
	Threshold int
	// Wait is the half-open wait, in the caller's ticks: a probe may start
	// once Wait ticks have passed since the breaker opened.
	Wait int64
}

// State is one key's breaker. The zero value is closed with no strikes.
type State struct {
	strikes  int
	open     bool
	openedAt int64
	probing  bool
}

// Open reports whether the breaker is open (short-circuiting its key).
func (s *State) Open() bool { return s.open }

// Probing reports whether a half-open probe is in flight.
func (s *State) Probing() bool { return s.probing }

// Strikes is the failures recorded since the breaker last closed.
func (s *State) Strikes() int { return s.strikes }

// Strike records one failure at tick now and reports whether it opened the
// breaker. Strikes keep counting while open, but only a closed breaker
// trips.
func (s *State) Strike(p Policy, now int64) (tripped bool) {
	s.strikes++
	if s.open || s.strikes < p.Threshold {
		return false
	}
	s.open, s.openedAt = true, now
	return true
}

// Remaining is the ticks left in the half-open wait at now (<= 0: elapsed).
func (s *State) Remaining(p Policy, now int64) int64 {
	return s.openedAt + p.Wait - now
}

// Ready reports whether a probe may start at now: the breaker is open, no
// probe is in flight, and the half-open wait has elapsed.
func (s *State) Ready(p Policy, now int64) bool {
	return s.open && !s.probing && s.Remaining(p, now) <= 0
}

// StartProbe marks a half-open probe in flight.
func (s *State) StartProbe() { s.probing = true }

// AbortProbe withdraws the in-flight probe without a verdict; the wait is
// left as it was, so the next Ready check may probe again at once.
func (s *State) AbortProbe() { s.probing = false }

// Resolve records a verdict at now. ok closes the breaker and clears its
// strikes, whether or not a probe was in flight; a failed probe re-opens
// the breaker at now, re-arming the half-open wait without a new strike.
func (s *State) Resolve(ok bool, now int64) {
	if ok {
		*s = State{}
		return
	}
	s.probing, s.openedAt = false, now
}
