package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// hardenedSet is a 16-scenario campaign of cheap single-boot kinds with one
// deliberately panicking scenario in the middle — the panic-isolation
// fixture of the PR: index 3 must come back as a structured "panic" result
// while every other index completes normally.
func hardenedSet() []Scenario {
	set := make([]Scenario, 16)
	for i := range set {
		set[i] = Scenario{Kind: KindWindowLadder, Seed: int64(100 + i)}
	}
	set[3].FaultSpec = "scenario-panic@1"
	return set
}

func TestPanicIsolationAcrossWorkers(t *testing.T) {
	set := hardenedSet()
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		sum, err := Engine{Workers: workers}.Run(set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sum.Panics != 1 {
			t.Fatalf("workers=%d: Panics = %d, want 1", workers, sum.Panics)
		}
		for i, r := range sum.Results {
			if i == 3 {
				if r.Outcome != OutcomePanic {
					t.Fatalf("workers=%d: result 3 outcome %q, want %q", workers, r.Outcome, OutcomePanic)
				}
				if !strings.Contains(r.Err, "injected scenario panic") {
					t.Fatalf("workers=%d: result 3 err %q", workers, r.Err)
				}
				if r.Stack == "" {
					t.Fatalf("workers=%d: panic result has no stack", workers)
				}
				if regexp.MustCompile(`0x[0-9a-f]+|goroutine \d`).MatchString(r.Stack) {
					t.Fatalf("workers=%d: stack not sanitized:\n%s", workers, r.Stack)
				}
				continue
			}
			if r.Outcome != "" || r.Err != "" {
				t.Fatalf("workers=%d: result %d contaminated by the panic: outcome=%q err=%q",
					workers, i, r.Outcome, r.Err)
			}
		}
		got, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: summary with a panicking scenario is not byte-identical", workers)
		}
	}
}

func TestScenarioDeadlineTimeout(t *testing.T) {
	set := []Scenario{
		{Kind: KindWindowLadder, Seed: 1},
		// scenario-stall@1 blocks the attempt for 250ms wall; the 30ms
		// deadline fires long before.
		{Kind: KindWindowLadder, Seed: 2, FaultSpec: "scenario-stall@1", TimeoutMS: 30},
		{Kind: KindWindowLadder, Seed: 3},
	}
	sum, err := Engine{Workers: 4}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Timeouts != 1 {
		t.Fatalf("Timeouts = %d, want 1", sum.Timeouts)
	}
	r := sum.Results[1]
	if r.Outcome != OutcomeTimeout {
		t.Fatalf("outcome %q, want %q", r.Outcome, OutcomeTimeout)
	}
	if !strings.Contains(r.Err, "30ms deadline") {
		t.Fatalf("err %q", r.Err)
	}
	for _, i := range []int{0, 2} {
		if sum.Results[i].Outcome != "" {
			t.Fatalf("result %d contaminated: %q", i, sum.Results[i].Outcome)
		}
	}
}

func TestRetryExhaustionOnPointFault(t *testing.T) {
	// A point rule fires at the same ordinal on every attempt, so the
	// engine must exhaust its retries and keep the final transient error.
	set := []Scenario{{Kind: KindWindowLadder, Seed: 7, FaultSpec: "alloc-fail@1"}}
	sum, err := Engine{Workers: 1}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[0]
	if r.Err == "" || !strings.Contains(r.Err, "injected") {
		t.Fatalf("err %q, want an injected-pressure failure", r.Err)
	}
	if r.Retries != DefaultMaxRetries {
		t.Fatalf("Retries = %d, want %d", r.Retries, DefaultMaxRetries)
	}
	if sum.Retries != DefaultMaxRetries || sum.Errors != 1 {
		t.Fatalf("summary retries=%d errors=%d", sum.Retries, sum.Errors)
	}
}

func TestRetryRecoversFromRateFault(t *testing.T) {
	// Rate-based decisions are redrawn per attempt (the attempt number
	// salts the plan), so a scenario that fails transiently on attempt 0
	// can succeed on a retry. Scan seeds for one that does exactly that —
	// the scan is deterministic, so this never flakes.
	for seed := int64(0); seed < 200; seed++ {
		set := []Scenario{{Kind: KindWindowLadder, Seed: seed, FaultSpec: "alloc-fail:0.02"}}
		sum, err := Engine{Workers: 1}.Run(set)
		if err != nil {
			t.Fatal(err)
		}
		r := sum.Results[0]
		if r.Retries > 0 && r.Err == "" {
			if sum.Retries != r.Retries {
				t.Fatalf("summary retries %d != result retries %d", sum.Retries, r.Retries)
			}
			return // found the recovery case
		}
	}
	t.Fatal("no seed in [0,200) recovered via retry — retry path looks dead")
}

func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Engine{Workers: 4}.RunCtx(ctx, hardenedSet())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunCtxCancelAfterClaimReportsCancellation: when cancellation lands
// after the final scenario is claimed, the worklist drains cleanly but the
// cancelled scenario's slot stays nil — the run must surface the
// cancellation, not aggregate a summary over empty slots (it used to
// crash in Aggregate for single-scenario jobs stalled under the watchdog).
func TestRunCtxCancelAfterClaimReportsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := Engine{Workers: 1, OnClaim: func(int) { cancel() }}
	sum, err := eng.RunCtx(ctx, []Scenario{{Kind: KindWindowLadder, Seed: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum != nil {
		t.Fatalf("cancelled run still produced a summary: %+v", sum)
	}
}

func TestFaultSpecValidation(t *testing.T) {
	bad := Scenario{Kind: KindWindowLadder, FaultSpec: "warp-core:0.5"}
	bad.Normalize(0)
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid fault spec accepted")
	}
	neg := Scenario{Kind: KindWindowLadder, TimeoutMS: -1}
	neg.Normalize(0)
	if err := neg.Validate(); err == nil {
		t.Fatal("negative timeout accepted")
	}
}

// TestInjectedFaultsSurfaceInMetrics is the injected-vs-detected loop: a
// fault-armed boot-study scenario must expose faultinject_* counters in its
// snapshot, and the IOMMU's fault counter must absorb the spurious faults.
func TestInjectedFaultsSurfaceInMetrics(t *testing.T) {
	set := []Scenario{{
		Kind: KindWindowLadder, Seed: 11,
		FaultSpec: "dma-corrupt:0.05,iommu-fault:0.001",
	}}
	sum, err := Engine{Workers: 1}.Run(set)
	if err != nil {
		t.Fatal(err)
	}
	r := sum.Results[0]
	if r.Err != "" {
		t.Fatalf("scenario failed: %s", r.Err)
	}
	if r.Snapshot == nil {
		t.Fatal("no snapshot captured")
	}
	ops := r.Snapshot.Total("faultinject_opportunities_total")
	if ops == 0 {
		t.Fatal("fault-armed boot consulted no injection hooks")
	}
	// And a clean scenario must NOT grow the families (golden stability).
	clean, err := Engine{Workers: 1}.Run([]Scenario{{Kind: KindWindowLadder, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Results[0].Snapshot.Total("faultinject_opportunities_total") != 0 {
		t.Fatal("clean boot leaked faultinject families into its snapshot")
	}
}

// TestFaultCampaignDeterminismAcrossWorkers: injection decisions are pure
// functions of (plan, scope, counter), so even heavily fault-ridden
// campaigns stay byte-identical at any worker count.
func TestFaultCampaignDeterminismAcrossWorkers(t *testing.T) {
	set := make([]Scenario, 8)
	for i := range set {
		set[i] = Scenario{
			Kind: KindWindowLadder, Seed: int64(300 + i),
			FaultSpec: "dma-corrupt:0.02,ring-drop:0.01,iommu-stall:0.01",
		}
	}
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		sum, err := Engine{Workers: workers}.Run(set)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: fault-injected campaign not byte-identical", workers)
		}
	}
}

// sanity: the derived scenario IDs mentioned in docs stay stable.
func TestHardenedScenarioIDs(t *testing.T) {
	s := Scenario{Kind: KindWindowLadder, Seed: 100}
	s.Normalize(3)
	if want := fmt.Sprintf("0003-%s-seed100", KindWindowLadder); s.ID != want {
		t.Fatalf("ID %q, want %q", s.ID, want)
	}
}
