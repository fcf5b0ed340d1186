// Command benchgate is a benchstat-style regression gate over the committed
// benchmark artifacts (BENCH_N.json, written by `make bench` through
// cmd/benchjson). It discovers the two newest artifacts by numeric suffix
// and exits nonzero when the newer one regresses on a shared
// sub-benchmark in either of two ways:
//
//   - ns/op more than -threshold slower on the fabric throughput and
//     campaign cache-hit families, whose regressions are coordination-layer
//     bugs rather than simulator noise;
//   - B/op or allocs/op more than 10% higher on the boot, campaign
//     throughput and §5.3 ring-flood benchmarks, where a simulated boot's
//     memory footprint shows first, on the per-layer deferred map/unmap,
//     NIC ring setup and IOTLB benchmarks, which say which layer moved, on
//     the summary encode every campaign ends with, and on the snapshot
//     merge and warm result-store replay every cached campaign runs. These
//     counts are deterministic for a given seed, so their threshold is
//     tight.
//
// The gate is advisory in CI (continue-on-error): single-iteration bench
// runs are noisy, and the artifact pair may span machines. A failure is a
// prompt to re-run `make bench` and look, not an automatic veto.
//
// Usage:
//
//	benchgate                      # compare two newest BENCH_*.json in .
//	benchgate -threshold 0.10      # tighter ns/op gate
//	benchgate BENCH_8.json BENCH_10.json   # explicit old new
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// gate is one metric watched on a set of benchmark families. Everything else
// in the artifact is simulator-shape benchmarking and drifts with content
// changes by design.
type gate struct {
	metric    string
	families  []string
	threshold float64 // largest tolerated relative increase
}

// memFamilies are the benchmarks whose per-op allocation the gate watches.
var memFamilies = []string{
	"BenchmarkBootOnce",
	"BenchmarkCampaignThroughput",
	"BenchmarkSec53_RingFlood",
	"BenchmarkMapUnmapDeferred",
	"BenchmarkAddNIC",
	"BenchmarkIOTLBInsertInvalidate",
	"BenchmarkSummaryJSON",
	"BenchmarkSnapshotMerge",
	"BenchmarkCampaignWarmReplay",
}

// memThreshold is the allocation gates' tolerance.
const memThreshold = 0.10

// gates returns the gate set with the ns/op gate at nsThreshold.
func gates(nsThreshold float64) []gate {
	return []gate{
		{"ns/op", []string{"BenchmarkFabricThroughput", "BenchmarkCampaignCacheHit"}, nsThreshold},
		{"B/op", memFamilies, memThreshold},
		{"allocs/op", memFamilies, memThreshold},
	}
}

// document mirrors cmd/benchjson's artifact (the fields the gate reads).
type document struct {
	Benchmarks []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

var benchNumRE = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func main() {
	threshold := flag.Float64("threshold", 0.20,
		"fail when new ns/op exceeds old by more than this fraction")
	dir := flag.String("dir", ".", "directory to discover BENCH_*.json in")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		var err error
		oldPath, newPath, err = discover(*dir)
		if err != nil {
			fatal(err)
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fatal(fmt.Errorf("want no args (auto-discover) or exactly two (old new), got %d", flag.NArg()))
	}

	oldDoc, err := load(oldPath)
	if err != nil {
		fatal(err)
	}
	newDoc, err := load(newPath)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("benchgate: %s -> %s (ns/op threshold +%.0f%%)\n", oldPath, newPath, *threshold*100)
	rows, failed := compare(oldDoc, newDoc, gates(*threshold))
	if len(rows) == 0 {
		fatal(fmt.Errorf("no gated benchmarks shared by %s and %s", oldPath, newPath))
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	if failed {
		fmt.Println("benchgate: FAIL — gated benchmark regressed past its threshold")
		os.Exit(1)
	}
	fmt.Println("benchgate: OK")
}

// row is one comparison of one metric of one benchmark.
type row struct {
	name, metric string
	old, new     float64
	delta        float64 // relative change, new vs old
	threshold    float64
}

func (r row) regressed() bool { return r.delta > r.threshold }

func (r row) String() string {
	verdict := "ok"
	if r.regressed() {
		verdict = fmt.Sprintf("REGRESSION (> +%.0f%%)", r.threshold*100)
	}
	return fmt.Sprintf("%-52s %16.0f -> %16.0f %-9s %+7.1f%%  %s",
		r.name, r.old, r.new, r.metric, r.delta*100, verdict)
}

// compare applies each gate to the benchmarks both artifacts share and
// returns one row per comparison, and whether any regressed.
func compare(oldDoc, newDoc metrics, gs []gate) (rows []row, failed bool) {
	for _, g := range gs {
		for _, name := range sharedNames(oldDoc, newDoc, g) {
			r := row{name: name, metric: g.metric, old: oldDoc[name][g.metric], new: newDoc[name][g.metric], threshold: g.threshold}
			if r.old != 0 {
				r.delta = (r.new - r.old) / r.old
			} else if r.new > 0 {
				r.delta = math.Inf(1)
			}
			failed = failed || r.regressed()
			rows = append(rows, r)
		}
	}
	return rows, failed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

// discover returns the two newest committed artifacts by numeric suffix —
// the Nth and N-1th `make bench` snapshots.
func discover(dir string) (oldPath, newPath string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	type artifact struct {
		n    int
		path string
	}
	var found []artifact
	for _, e := range entries {
		m := benchNumRE.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			continue
		}
		found = append(found, artifact{n: n, path: filepath.Join(dir, e.Name())})
	}
	if len(found) < 2 {
		return "", "", fmt.Errorf("found %d BENCH_*.json artifacts in %s, need 2", len(found), dir)
	}
	sort.Slice(found, func(i, j int) bool { return found[i].n < found[j].n })
	return found[len(found)-2].path, found[len(found)-1].path, nil
}

// metrics maps benchmark name to its metrics (ns/op, B/op, allocs/op, ...).
type metrics map[string]map[string]float64

// load reads one artifact.
func load(path string) (metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// procsSuffix is the -GOMAXPROCS suffix go test appends to benchmark names
// on multi-core hosts ("BenchmarkBootOnce-2").
var procsSuffix = regexp.MustCompile(`-\d+$`)

// parse decodes one artifact, keying benchmarks by name without the
// GOMAXPROCS suffix so that artifacts from hosts with different core counts
// line up. Per-op allocation counts do not depend on the core count; ns/op
// does, which is one more reason the gate is advisory.
func parse(data []byte) (metrics, error) {
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	out := metrics{}
	for _, b := range doc.Benchmarks {
		if len(b.Metrics) > 0 {
			out[procsSuffix.ReplaceAllString(b.Name, "")] = b.Metrics
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmarks with metrics")
	}
	return out, nil
}

// sharedNames lists the gate's benchmarks that report its metric in both
// artifacts, sorted. Sub-benchmarks only one side has (a family gained an
// arm) are not comparable and are skipped rather than failed.
func sharedNames(oldDoc, newDoc metrics, g gate) []string {
	var names []string
	for name, nm := range newDoc {
		if _, ok := nm[g.metric]; !ok {
			continue
		}
		if _, ok := oldDoc[name][g.metric]; !ok {
			continue
		}
		for _, p := range g.families {
			if name == p || strings.HasPrefix(name, p+"/") {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	return names
}
