// Package experiments contains one driver per reproduced artifact of the
// paper (its theorems, lower-bound constructions and figures — the paper
// is a theory paper, so the "tables and figures" of its evaluation are
// the complexity and accuracy claims themselves). Each driver generates
// the workload, runs the implementation, and returns an ASCII table whose
// rows mirror the claim being checked. EXPERIMENTS.md records paper
// claim vs measured outcome for every driver; `cmd/unnbench` regenerates
// any of them; `bench_test.go` carries a testing.B benchmark per driver.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Options tunes all drivers.
type Options struct {
	// Quick shrinks the sweeps for CI-speed runs (used by tests and the
	// default bench configuration).
	Quick bool
	// Seed makes workloads reproducible.
	Seed int64
	// SnapshotPath, when non-empty, makes the E21 snapshot sweep persist
	// its flagship index to that file and reuse it on subsequent runs
	// instead of rebuilding cold (unnbench -snapshot <path>).
	SnapshotPath string
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 0x5eed
	}
	return o.Seed
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a free-text note rendered under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&sb, "   claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "   note: %s\n", n)
	}
	sb.WriteByte('\n')
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// Driver is an experiment entry point.
type Driver func(Options) *Table

// All maps experiment IDs to drivers, in presentation order.
var All = []struct {
	ID   string
	Desc string
	Run  Driver
}{
	{"E1", "V≠0 complexity, random disks (Thm 2.5)", E1RandomDiskComplexity},
	{"E2", "Ω(n³) mixed-radius construction (Thm 2.7, Fig 5)", E2LowerBoundMixed},
	{"E3", "Ω(n³) equal-radius construction (Thm 2.8, Fig 6)", E3LowerBoundEqual},
	{"E4", "disjoint disks Θ(λn²) (Thm 2.10, Fig 8)", E4DisjointLambda},
	{"E5", "V≠0 complexity, discrete (Thm 2.14)", E5DiscreteComplexity},
	{"E6", "NN≠0 queries over disks (Thm 2.11 vs Thm 3.1)", E6ContinuousQueries},
	{"E7", "NN≠0 queries, discrete two-stage (Thm 3.2)", E7DiscreteQueries},
	{"E8", "V_Pr growth and exact queries (Lem 4.1, Thm 4.2)", E8VPrGrowth},
	{"E9", "Monte-Carlo error vs rounds (Thm 4.3)", E9MonteCarloError},
	{"E10", "continuous discretization (Thm 4.5, Lem 4.4)", E10ContinuousMC},
	{"E11", "spiral search vs exact vs MC (Thm 4.7)", E11Spiral},
	{"E12", "light-location pruning counterexample (§4.3 Rem i)", E12Remark},
	{"E13", "distance pdf of Figure 1", E13Figure1},
	{"E14", "expected NN vs probabilistic NN (§1.2, [AESZ12])", E14Semantics},
	{"E15", "V≠0 construction time (Thm 2.5)", E15BuildScaling},
	{"E16", "engine layer: all backends, single vs batch", E16Engine},
	{"E17", "sharded engine: shard-scaling sweep, batch throughput", E17Shard},
	{"E18", "dynamic shards: streaming insert/delete vs full rebuild", E18Stream},
	{"E19", "cost-based planner vs rule-based auto, mixed workload", E19Planner},
	{"E20", "mutation batching: coalesced bursts + insert buffer", E20Mutation},
	{"E21", "index snapshots: cold build vs zero-copy restore", E21Snapshot},
	{"E22", "top-k most-likely NN: registry kind across execution layers", E22TopK},
	{"E23", "batch executor: in-batch dedup over the single-query path", E23BatchDedup},
	{"E24", "adaptive replanning: drift-detected per-shard replan vs frozen plan", E24Adaptive},
}

// Lookup finds a driver by ID.
func Lookup(id string) (Driver, bool) {
	for _, e := range All {
		if strings.EqualFold(e.ID, id) {
			return e.Run, true
		}
	}
	return nil, false
}

// --- small shared helpers ---------------------------------------------------

func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string { return fmt.Sprintf("%.4g", v) }
func dtoa(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// timeIt measures fn once.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// timePer measures the average latency of fn over reps runs.
func timePer(reps int, fn func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		fn(i)
	}
	return time.Duration(int64(time.Since(t0)) / int64(reps))
}

// fitExponent returns the least-squares slope of log(y) vs log(x) — the
// empirical growth exponent of a sweep.
func fitExponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	return (fn*sxy - sx*sy) / (fn*sxx - sx*sx)
}

// maxAbs returns the max absolute difference between dense vectors.
func maxAbs(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// median of a sample (destructive).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}
