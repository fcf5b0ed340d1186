// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrates. Each experiment returns an Outcome
// with a rendered text artifact plus machine-checkable metrics; the bench
// harness (bench_test.go) and cmd/experiments both delegate here, and
// EXPERIMENTS.md records paper-vs-measured for each ID.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Outcome is one regenerated artifact.
type Outcome struct {
	ID    string // "T1", "F6", "S5.3", ...
	Title string
	// Text is the rendered artifact (table rows / report lines / trace).
	Text string
	// Metrics are the headline numbers, for EXPERIMENTS.md and assertions.
	Metrics map[string]string
	// OK reports whether the paper's qualitative claim held.
	OK bool
}

func newOutcome(id, title string) *Outcome {
	return &Outcome{ID: id, Title: title, Metrics: make(map[string]string), OK: true}
}

func (o *Outcome) metric(k, format string, args ...any) {
	o.Metrics[k] = fmt.Sprintf(format, args...)
}

func (o *Outcome) printf(format string, args ...any) {
	o.Text += fmt.Sprintf(format, args...)
}

// Render pretty-prints the outcome.
func (o *Outcome) Render() string {
	var b strings.Builder
	status := "OK"
	if !o.OK {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "== %s: %s [%s] ==\n", o.ID, o.Title, status)
	b.WriteString(o.Text)
	if len(o.Metrics) > 0 {
		keys := make([]string, 0, len(o.Metrics))
		for k := range o.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("-- metrics --\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %s\n", k, o.Metrics[k])
		}
	}
	return b.String()
}

// Config scales the slow experiments.
type Config struct {
	// BootTrials is the §5.3 reboot count (paper: 256).
	BootTrials int
	// CampaignAttempts is the RingFlood success-rate sample size.
	CampaignAttempts int
	// Seed seeds every experiment deterministically.
	Seed int64
}

// DefaultConfig matches the paper's scale.
var DefaultConfig = Config{BootTrials: 256, CampaignAttempts: 16, Seed: 2021}

// QuickConfig keeps test runs fast.
var QuickConfig = Config{BootTrials: 16, CampaignAttempts: 4, Seed: 2021}

// runner is one experiment entry.
type runner struct {
	id  string
	run func(Config) (*Outcome, error)
}

// registry lists every experiment in paper order.
func registry() []runner {
	return []runner{
		{"T1", func(c Config) (*Outcome, error) { return Table1(c) }},
		{"T2", func(c Config) (*Outcome, error) { return Table2(c) }},
		{"F1", func(c Config) (*Outcome, error) { return Figure1(c) }},
		{"F2", func(c Config) (*Outcome, error) { return Figure2(c) }},
		{"F3", func(c Config) (*Outcome, error) { return Figure3(c) }},
		{"F4", func(c Config) (*Outcome, error) { return Figure4(c) }},
		{"F5", func(c Config) (*Outcome, error) { return Figure5(c) }},
		{"F6", func(c Config) (*Outcome, error) { return Figure6(c) }},
		{"F7", func(c Config) (*Outcome, error) { return Figure7(c) }},
		{"F8", func(c Config) (*Outcome, error) { return Figure8(c) }},
		{"F9", func(c Config) (*Outcome, error) { return Figure9(c) }},
		{"S2.4", func(c Config) (*Outcome, error) { return Sec24(c) }},
		{"S5.2.1", func(c Config) (*Outcome, error) { return Sec521(c) }},
		{"S5.3", func(c Config) (*Outcome, error) { return Sec53(c) }},
		{"S6", func(c Config) (*Outcome, error) { return Sec6(c) }},
		{"S7", func(c Config) (*Outcome, error) { return Sec7(c) }},
	}
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Outcome, error) {
	for _, r := range registry() {
		if strings.EqualFold(r.id, id) {
			return r.run(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	var out []string
	for _, r := range registry() {
		out = append(out, r.id)
	}
	return out
}

// All runs every experiment.
func All(cfg Config) ([]*Outcome, error) {
	var out []*Outcome
	for _, r := range registry() {
		o, err := r.run(cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", r.id, err)
		}
		out = append(out, o)
	}
	return out, nil
}

// Report renders outcomes as one combined artifact: each outcome followed
// by a blank line, then the tally of reproduced claims. At DefaultConfig it
// is the committed experiments_output.txt. It also returns how many
// outcomes did not reproduce the paper's claim.
func Report(outcomes []*Outcome) (report string, failed int) {
	var b strings.Builder
	for _, o := range outcomes {
		b.WriteString(o.Render())
		b.WriteString("\n")
		if !o.OK {
			failed++
		}
	}
	fmt.Fprintf(&b, "=== %d/%d experiments reproduced the paper's claims ===\n", len(outcomes)-failed, len(outcomes))
	return b.String(), failed
}
