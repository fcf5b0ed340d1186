// Package netchaos is the fabric-plane sibling of internal/faultinject: a
// deterministic fault injector for the HTTP transport between a fabric
// coordinator and its dmafaultd workers. Where faultinject makes the
// simulated *hardware* misbehave at its natural failure points, netchaos
// makes the *network* misbehave at its own — added latency, dropped
// connections, injected 5xx/429 storms, truncated and bit-flipped response
// bodies, and full worker partitions — so the coordinator's recovery
// machinery (re-lease, integrity verification, resubscribing a torn event
// stream) can be exercised repeatably instead of waiting for a flaky
// switch.
//
// It uses faultinject's plan engine: the spec grammar, validation, the
// decision stream and its counters are faultinject's, bound to this
// package's class names. A Plan is per-class rules, rate-based or
// point-based, and every decision is a pure function of (seed, salt,
// class, per-class opportunity ordinal) through the splitmix64 finalizer.
// Two transports built from the same plan make the same decision at the
// same ordinal; what varies across runs is only which request draws which
// ordinal (concurrent leases race for the counter), which is precisely the
// nondeterminism the fabric must already survive. Campaign *results* stay
// byte-identical under any plan — the guarantee the fabric tests enforce.
//
// Wire it in through faultdclient.Client.WithTransport or
// fabric.Config.Transport:
//
//	plan, _ := netchaos.ParseSpec("bitflip:0.3,http-503:0.1,partition@40")
//	plan.Seed = 11
//	cfg.Transport = netchaos.NewTransport(plan, nil)
package netchaos

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmafault/internal/faultinject"
)

// Class enumerates the injectable transport-fault classes. The order is the
// wire order of counters and spec rendering; append only.
type Class uint8

const (
	// Latency delays the request by the transport's Latency knob before it
	// is forwarded (context cancellation cuts the sleep short).
	Latency Class = iota
	// ConnDrop fails the request with a synthetic connection error — the
	// wire analogue of a mid-flight RST. The HTTP client sees a transport
	// error, never a response.
	ConnDrop
	// HTTP500 answers with an injected 500 instead of forwarding.
	HTTP500
	// HTTP503 answers with an injected 503 carrying a Retry-After hint,
	// alternating the delta-seconds and HTTP-date header forms so both
	// parser arms stay exercised.
	HTTP503
	// HTTP429 answers with an injected 429, Retry-After included, like a
	// queue-full worker.
	HTTP429
	// Truncate forwards the request but cuts the response body short after
	// TruncateAt bytes — a torn delivery.
	Truncate
	// BitFlip forwards the request but flips the low bit of one ASCII digit
	// in the response body. Digits are closed under a low-bit flip, so JSON
	// stays well-formed and the corruption travels all the way to the
	// fabric's integrity layer instead of dying in the decoder.
	BitFlip
	// Partition opens a full partition against the request's host: this
	// request and the next PartitionLen-1 to the same host all fail with
	// connection errors, whatever their other draws. Heartbeats and leases
	// alike go dark — the closest thing HTTP chaos has to yanking a cable.
	Partition

	numClasses
)

var vocabulary = faultinject.Vocabulary{Pkg: "netchaos", Names: []string{
	"latency",
	"conn-drop",
	"http-500",
	"http-503",
	"http-429",
	"truncate",
	"bitflip",
	"partition",
}}

// Vocabulary binds faultinject's plan engine to this package's class names.
func (Class) Vocabulary() *faultinject.Vocabulary { return &vocabulary }

// String names the class as ParseSpec spells it.
func (c Class) String() string { return vocabulary.Name(uint8(c)) }

// Rule and Plan are faultinject's rule and plan over the transport classes.
type (
	Rule = faultinject.RuleOf[Class]
	Plan = faultinject.PlanOf[Class]
)

// ParseSpec compiles a transport-chaos spec in faultinject's grammar, e.g.
// "bitflip:0.3,http-503:0.1,conn-drop:0.05,partition@40". Seed and Salt
// are left zero; callers bind them (cmd/campaign uses -netchaos-seed).
func ParseSpec(spec string) (*Plan, error) { return faultinject.Parse[Class](spec) }

// Defaults for Transport's zero-valued knobs, and the fixed cut of a
// Truncate hit.
const (
	// DefaultLatency is the injected delay per Latency hit.
	DefaultLatency = 25 * time.Millisecond
	// DefaultPartitionLen is how many consecutive requests to a host one
	// Partition hit swallows.
	DefaultPartitionLen = 8
	// DefaultTruncateAt is where every Truncate hit cuts the response body —
	// short enough to tear any JSON document the /v1 API emits.
	DefaultTruncateAt = 20
	// retryAfterSeconds is the hint injected 503/429 responses carry.
	retryAfterSeconds = 1
)

// Transport is the chaos RoundTripper. Unlike a faultinject.Injector it IS
// safe for concurrent use — the fabric fans leases, polls, and heartbeats
// through one transport from many goroutines, and the shared ordinal
// counters are exactly what makes a plan's total injection budget hold
// across all of them.
type Transport struct {
	// Base is the wrapped RoundTripper (nil: http.DefaultTransport).
	Base http.RoundTripper
	// Latency is the injected delay per Latency hit (0: DefaultLatency).
	Latency time.Duration
	// PartitionLen is requests swallowed per Partition hit
	// (0: DefaultPartitionLen).
	PartitionLen uint64

	mu         sync.Mutex
	s          faultinject.Stream[Class]
	partitions map[string]uint64 // host → requests left to swallow
}

// NewTransport compiles a plan over base. A nil or empty plan yields a
// transport that forwards everything untouched (the counters still run, so
// "chaos off" and "chaos on" expositions stay comparable).
func NewTransport(plan *Plan, base http.RoundTripper) *Transport {
	return &Transport{Base: base, s: faultinject.Compile(plan, 0), partitions: map[string]uint64{}}
}

// Counts returns (opportunities, injections) for a class.
func (t *Transport) Counts(c Class) (ops, injected uint64) {
	if t == nil || c >= numClasses {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.s.Counts(c)
}

// CountsText renders every class's ops/hits as one log-friendly line.
func (t *Transport) CountsText() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	parts := make([]string, 0, numClasses)
	for c := Class(0); c < numClasses; c++ {
		ops, hits := t.s.Counts(c)
		if ops == 0 && hits == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d/%d", c, hits, ops))
	}
	if len(parts) == 0 {
		return "idle"
	}
	return strings.Join(parts, " ")
}

// Error is an injected transport failure (ConnDrop or Partition). The HTTP
// client surfaces it wrapped in *url.Error like any real dial failure, so
// consumers retry it exactly as they would a genuine outage.
type Error struct {
	Class Class
	Host  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("netchaos: injected %s (%s)", e.Class, e.Host)
}

// RoundTrip implements http.RoundTripper: it draws this request's fate for
// every class up front (so ordinal streams stay aligned whatever fires),
// then applies the worst of it.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	// An open partition swallows the request before any per-class draw: the
	// host is unreachable, not flaky.
	if left := t.partitions[host]; left > 0 {
		if left == 1 {
			delete(t.partitions, host)
		} else {
			t.partitions[host] = left - 1
		}
		t.mu.Unlock()
		return nil, &Error{Class: Partition, Host: host}
	}
	if t.s.Fire(Partition) {
		if n := t.partitionLen(); n > 1 {
			t.partitions[host] = n - 1 // this request is the first casualty
		}
		t.mu.Unlock()
		return nil, &Error{Class: Partition, Host: host}
	}
	delay := t.s.Fire(Latency)
	drop := t.s.Fire(ConnDrop)
	status := 0
	dateForm := false
	if t.s.Fire(HTTP500) {
		status = http.StatusInternalServerError
	}
	if t.s.Fire(HTTP503) && status == 0 {
		status = http.StatusServiceUnavailable
		dateForm = t.parity(HTTP503)
	}
	if t.s.Fire(HTTP429) && status == 0 {
		status = http.StatusTooManyRequests
		dateForm = t.parity(HTTP429)
	}
	trunc := t.s.Fire(Truncate)
	flip := t.s.Fire(BitFlip)
	var flipTarget uint64
	if flip {
		flipTarget = t.flipTarget()
	}
	t.mu.Unlock()

	if delay {
		if err := sleepCtx(req.Context(), t.latency()); err != nil {
			return nil, err
		}
	}
	if drop {
		return nil, &Error{Class: ConnDrop, Host: host}
	}
	if status != 0 {
		// Synthesized response: the request never reaches the worker. Drain
		// and close the body so the client's connection is reusable.
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return synthesize(req, status, dateForm), nil
	}
	resp, err := t.base().RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if trunc {
		resp.Body = &truncReader{rc: resp.Body, left: DefaultTruncateAt}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
	}
	if flip {
		resp.Body = &flipReader{rc: resp.Body, target: flipTarget}
	}
	return resp, nil
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

func (t *Transport) latency() time.Duration {
	if t.Latency > 0 {
		return t.Latency
	}
	return DefaultLatency
}

func (t *Transport) partitionLen() uint64 {
	if t.PartitionLen > 0 {
		return t.PartitionLen
	}
	return DefaultPartitionLen
}

// flipTarget picks which digit of the body a BitFlip hit corrupts: a small
// 1-based ordinal drawn from the decision stream (different constant) so
// corruption lands at varying depths of the document. Kept small enough
// that even a compact job document carries that many digits; a body with
// fewer passes untouched. Callers hold t.mu.
func (t *Transport) flipTarget() uint64 { return 1 + t.s.Draw(BitFlip, 0xf11b)%16 }

// parity reports whether the class's opportunity count is even: which
// Retry-After form an injected 503/429 carries. Callers hold t.mu.
func (t *Transport) parity(c Class) bool {
	ops, _ := t.s.Counts(c)
	return ops%2 == 0
}

// synthesize builds an injected error response. 503/429 carry a Retry-After
// hint, alternating delta-seconds and HTTP-date forms (RFC 9110 §10.2.3)
// so both client parser arms run under chaos.
func synthesize(req *http.Request, status int, dateForm bool) *http.Response {
	h := http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		if dateForm {
			h.Set("Retry-After", time.Now().Add(retryAfterSeconds*time.Second).UTC().Format(http.TimeFormat))
		} else {
			h.Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		}
	}
	body := fmt.Sprintf("netchaos: injected %d", status)
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncReader passes through the first `left` bytes and then reports EOF —
// a body cut mid-document. Streaming on purpose: SSE watch bodies must not
// be buffered whole.
type truncReader struct {
	rc   io.ReadCloser
	left int64
}

func (t *truncReader) Read(p []byte) (int, error) {
	if t.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > t.left {
		p = p[:t.left]
	}
	n, err := t.rc.Read(p)
	t.left -= int64(n)
	return n, err
}

func (t *truncReader) Close() error { return t.rc.Close() }

// flipReader flips the low bit of the target-th ASCII digit that streams
// through it. The set 0-9 is closed under a low-bit flip ('0'↔'1' … '8'↔'9'),
// so a JSON body stays syntactically valid while a value inside it silently
// changes — the hardest corruption for a consumer to notice, and exactly
// what the fabric's integrity verification exists to catch. A body with
// fewer digits than the target passes untouched.
type flipReader struct {
	rc     io.ReadCloser
	target uint64
	seen   uint64
}

func (f *flipReader) Read(p []byte) (int, error) {
	n, err := f.rc.Read(p)
	if f.seen < f.target {
		for i := 0; i < n; i++ {
			if p[i] >= '0' && p[i] <= '9' {
				f.seen++
				if f.seen == f.target {
					p[i] ^= 1
					break
				}
			}
		}
	}
	return n, err
}

func (f *flipReader) Close() error { return f.rc.Close() }

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
