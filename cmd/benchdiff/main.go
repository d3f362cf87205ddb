// Command benchdiff compares two BENCH_engine.json files (the
// machine-readable engine benchmark emitted by `unnbench -json`) and
// warns about throughput regressions — the perf-trajectory gate run by
// `make benchdiff` in CI against the previous run's artifact.
//
// Usage:
//
//	benchdiff -old prev/BENCH_engine.json -new BENCH_engine.json
//	benchdiff -threshold 0.2 -exp E17,E18,E19,E20,E21,E22,E23,E24 -fail ...
//
// Records are matched by (exp, backend, n, shards); within a matched
// pair every populated per-op cost (query_ns_op, batch_ns_op,
// mutate_ns_op, rebuild_ns_op) is compared, and a metric that slowed by
// more than the threshold (default 20%) prints a WARN line. The E19
// planner sweep additionally gets an intra-run invariant: the
// cost-based planner's mixed-workload throughput must not fall below
// the rule-based auto's in the *new* file (a planner that plans itself
// slower than the rule it replaced is a calibration bug, whatever the
// previous run did). A second intra-run invariant guards the flat
// kernels: measured allocs_per_query on the kernel-served NN≠0 rows
// (E17, and the E16 brute / two-stage backends) must stay at zero
// steady state. A third set guards the E21 snapshot layer: within the
// new file, snapshot restore must stay ≥10× faster than the cold build
// it replaces and the parity checksum must read ok; against the
// baseline, snapshot_bytes must not grow beyond the threshold. A
// fourth set guards the E23 batch executor: on the hot-skew workload
// the deduplicating batch must stay ≥1.5× faster than a per-query loop
// at the same (n, shards), its answers bit-identical (parity ok), and
// its steady-state allocations zero. A fifth set guards the E24
// adaptive replanning loop: under the mid-stream mix flip the adaptive
// engine must have replanned at least once, serve the drifted workload
// ≥1.3× faster than the frozen plan at the same (n, shards), and its
// post-swap answers must fingerprint identically to the monolithic
// oracle (parity ok).
// Benchmark noise makes hard failures
// counterproductive, so the exit status stays 0 unless -fail is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"unn/internal/experiments"
)

type key struct {
	exp     string
	backend string
	n       int
	shards  int
}

func load(path string) (map[key]experiments.BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []experiments.BenchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[key]experiments.BenchRecord, len(recs))
	for _, r := range recs {
		m[key{r.Exp, r.Backend, r.N, r.Shards}] = r
	}
	return m, nil
}

func main() {
	var (
		oldPath   = flag.String("old", "", "previous BENCH_engine.json (the baseline)")
		newPath   = flag.String("new", "BENCH_engine.json", "fresh BENCH_engine.json")
		threshold = flag.Float64("threshold", 0.20, "relative slowdown that counts as a regression")
		exps      = flag.String("exp", "E17,E18,E19,E20,E21,E22,E23,E24", "comma-separated experiments to compare")
		failFlag  = flag.Bool("fail", false, "exit non-zero when regressions are found")
	)
	flag.Parse()
	if *oldPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old is required (the previous run's artifact)")
		os.Exit(2)
	}
	oldRecs, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newRecs, err := load(*newPath)
	if err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(strings.ToUpper(e))] = true
	}

	metrics := []struct {
		name string
		get  func(experiments.BenchRecord) float64
	}{
		{"query_ns_op", func(r experiments.BenchRecord) float64 { return r.QueryNsOp }},
		{"batch_ns_op", func(r experiments.BenchRecord) float64 { return r.BatchNsOp }},
		{"mutate_ns_op", func(r experiments.BenchRecord) float64 { return r.MutateNsOp }},
		{"rebuild_ns_op", func(r experiments.BenchRecord) float64 { return r.RebuildNsOp }},
		{"snapshot_load_ns", func(r experiments.BenchRecord) float64 { return float64(r.SnapshotLoadNs) }},
	}
	compared, regressions := 0, 0
	for k, nr := range newRecs {
		if !want[strings.ToUpper(k.exp)] {
			continue
		}
		or, ok := oldRecs[k]
		if !ok {
			fmt.Printf("NEW:  %s %s n=%d k=%d has no baseline row\n", k.exp, k.backend, k.n, k.shards)
			continue
		}
		for _, m := range metrics {
			was, now := m.get(or), m.get(nr)
			if was <= 0 || now <= 0 {
				continue
			}
			compared++
			rel := now/was - 1
			if rel > *threshold {
				regressions++
				fmt.Printf("WARN: %s %s n=%d k=%d %s regressed %+.1f%% (%.0fns → %.0fns)\n",
					k.exp, k.backend, k.n, k.shards, m.name, 100*rel, was, now)
			}
		}
	}
	if want["E19"] {
		regressions += checkPlannerInvariant(newRecs, *threshold)
	}
	regressions += checkAllocFree(newRecs, want)
	if want["E21"] {
		regressions += checkSnapshotInvariant(newRecs, oldRecs, *threshold)
	}
	if want["E22"] {
		regressions += checkTopKInvariant(newRecs, *threshold)
	}
	if want["E23"] {
		regressions += checkBatchDedupInvariant(newRecs)
	}
	if want["E24"] {
		regressions += checkAdaptiveInvariant(newRecs)
	}
	fmt.Printf("benchdiff: %d metrics compared, %d regressions beyond %.0f%% (%s)\n",
		compared, regressions, 100**threshold, *exps)
	if *failFlag && regressions > 0 {
		os.Exit(1)
	}
}

// checkPlannerInvariant warns when the fresh E19 sweep shows the
// cost-based planner's mixed-workload latency more than the noise
// threshold above the rule-based auto's at the same instance size — the
// planner exists to beat that baseline, so falling below it means the
// calibration mispriced a backend. Gated on E19 being in the -exp
// scope and slackened by -threshold, like every other comparison.
// Returns the number of violations (counted as regressions).
func checkPlannerInvariant(recs map[key]experiments.BenchRecord, threshold float64) int {
	autos := map[int]experiments.BenchRecord{}
	planners := map[int]experiments.BenchRecord{}
	for k, r := range recs {
		if !strings.EqualFold(k.exp, "E19") {
			continue
		}
		switch k.backend {
		case "auto":
			autos[k.n] = r
		case "planner":
			planners[k.n] = r
		}
	}
	violations := 0
	for n, pr := range planners {
		ar, ok := autos[n]
		if !ok || ar.QueryNsOp <= 0 || pr.QueryNsOp <= 0 {
			continue
		}
		if pr.QueryNsOp > ar.QueryNsOp*(1+threshold) {
			violations++
			fmt.Printf("WARN: E19 n=%d planner mixed throughput below rule-based auto (%.0fns vs %.0fns per query; plan %s)\n",
				n, pr.QueryNsOp, ar.QueryNsOp, pr.Plan)
		}
	}
	return violations
}

// checkAllocFree enforces the flat-kernel invariant on the fresh file:
// every measured allocs_per_query on the kernel-served NN≠0 rows —
// E17 sharded rows, the E16 brute / two-stage rows, the E23 dedup
// batch rows (measured through BatchNonzeroInto), and the E24 adaptive
// row (QueryNonzeroInto with the adaptive loop's windowed observation
// enabled) — must stay at zero steady state. The bar is 0.5, not literally 0: the measurement
// amortizes one post-GC scratch-pool refill over its rounds, so an
// allocation-free path reads ≪ 0.5 and a path that re-grew a real
// per-query allocation reads ≥ 1. Rows with allocs_per_query = -1
// (backend without an NN≠0 path, e.g. the diagram's label store, or a
// pre-kernel baseline file) are skipped. Scoped by -exp like the rest.
func checkAllocFree(recs map[key]experiments.BenchRecord, want map[string]bool) int {
	allocFree := map[string]bool{
		"brute": true, "twostage-disks": true, "twostage-discrete": true,
		"twostage-linf": true, "twostage-l1": true,
	}
	violations := 0
	for k, r := range recs {
		if !want[strings.ToUpper(k.exp)] || r.AllocsPerQuery < 0 {
			continue
		}
		measured := strings.EqualFold(k.exp, "E17") ||
			strings.EqualFold(k.exp, "E23") ||
			strings.EqualFold(k.exp, "E24") ||
			(strings.EqualFold(k.exp, "E16") && allocFree[k.backend])
		if measured && r.AllocsPerQuery > 0.5 {
			violations++
			fmt.Printf("WARN: %s %s n=%d k=%d allocates on the NN≠0 query path (%.2f allocs/op, want 0 steady state)\n",
				k.exp, k.backend, k.n, k.shards, r.AllocsPerQuery)
		}
	}
	return violations
}

// checkSnapshotInvariant guards the E21 snapshot layer. Intra-run, on
// the fresh file: snapshot restore must stay ≥10× faster than the cold
// build it replaces (the snapshot PR's acceptance bar), and the parity
// field must read ok — an answer or Explain mismatch between live and
// restored engines is a correctness bug regardless of timing. Against
// the baseline: snapshot_bytes must not grow beyond the threshold (a
// silently fattening format erodes the load-time win). Rows without a
// build measurement (reused-snapshot runs) only get the parity and
// size checks, as do quick-sized rows (n < 10k): the 10× bar is stated
// at n = 100k, and at toy sizes the cold build is too cheap for the
// ratio to be meaningful. Returns the number of violations.
func checkSnapshotInvariant(newRecs, oldRecs map[key]experiments.BenchRecord, threshold float64) int {
	const minSpeedup = 10.0
	const minN = 10000
	violations := 0
	for k, r := range newRecs {
		if !strings.EqualFold(k.exp, "E21") {
			continue
		}
		if r.Parity != "" && r.Parity != "reused" && !strings.HasPrefix(r.Parity, "ok") {
			violations++
			fmt.Printf("WARN: E21 %s n=%d snapshot parity broken (%s): restored engine disagrees with live build\n",
				k.backend, k.n, r.Parity)
		}
		if r.BuildNs > 0 && r.SnapshotLoadNs > 0 && k.n >= minN {
			speedup := float64(r.BuildNs) / float64(r.SnapshotLoadNs)
			if speedup < minSpeedup {
				violations++
				fmt.Printf("WARN: E21 %s n=%d snapshot load only %.1fx faster than cold build (want ≥%.0fx; %dns vs %dns)\n",
					k.backend, k.n, speedup, minSpeedup, r.SnapshotLoadNs, r.BuildNs)
			}
		}
		if or, ok := oldRecs[k]; ok && or.SnapshotBytes > 0 && r.SnapshotBytes > 0 {
			rel := float64(r.SnapshotBytes)/float64(or.SnapshotBytes) - 1
			if rel > threshold {
				violations++
				fmt.Printf("WARN: E21 %s n=%d snapshot grew %+.1f%% (%dB → %dB)\n",
					k.backend, k.n, 100*rel, or.SnapshotBytes, r.SnapshotBytes)
			}
		}
	}
	return violations
}

// checkTopKInvariant is the E22 intra-run sanity bound: a top-k query
// is one π sweep plus an O(n log k) selection, so a "<config>-topk<k>"
// row's query_ns_op must stay within a small factor of the same
// configuration's "<config>-probs" baseline at the same (n, shards).
// The bar is 1.5× plus the noise threshold — far above the selection's
// real cost, low enough to catch a top-k path that re-runs the sweep
// per rank or fell off the shared merge. Returns the violation count.
func checkTopKInvariant(recs map[key]experiments.BenchRecord, threshold float64) int {
	const selectionSlack = 1.5
	type cfg struct {
		name   string
		n      int
		shards int
	}
	probs := map[cfg]experiments.BenchRecord{}
	for k, r := range recs {
		if strings.EqualFold(k.exp, "E22") && strings.HasSuffix(k.backend, "-probs") {
			probs[cfg{strings.TrimSuffix(k.backend, "-probs"), k.n, k.shards}] = r
		}
	}
	violations := 0
	for k, r := range recs {
		if !strings.EqualFold(k.exp, "E22") {
			continue
		}
		i := strings.LastIndex(k.backend, "-topk")
		if i < 0 {
			continue
		}
		pr, ok := probs[cfg{k.backend[:i], k.n, k.shards}]
		if !ok || pr.QueryNsOp <= 0 || r.QueryNsOp <= 0 {
			continue
		}
		if r.QueryNsOp > pr.QueryNsOp*selectionSlack*(1+threshold) {
			violations++
			fmt.Printf("WARN: E22 %s n=%d k=%d top-k latency %.0fns exceeds %.1fx its π baseline (%.0fns)\n",
				k.backend, k.n, k.shards, r.QueryNsOp, selectionSlack*(1+threshold), pr.QueryNsOp)
		}
	}
	return violations
}

// checkBatchDedupInvariant is the E23 intra-run bound on the fresh
// file: on the hot-skew workload the batch executor must stay ≥1.5×
// faster than a per-query QueryNonzero loop at the same (n, shards) —
// 1.5× is the floor below which in-batch dedup has effectively stopped
// working — and the hot dedup row's parity fingerprint must read ok (a
// batch is contractually bit-identical to its query loop). The uniq
// rows are informational (the no-sharing bound sits near 1×) and are
// guarded only by the generic per-metric baseline comparison.
func checkBatchDedupInvariant(recs map[key]experiments.BenchRecord) int {
	const minSpeedup = 1.5
	loops := map[key]experiments.BenchRecord{}
	for k, r := range recs {
		if strings.EqualFold(k.exp, "E23") && strings.HasSuffix(k.backend, "-hot-loop") {
			k.backend = strings.TrimSuffix(k.backend, "-loop")
			loops[k] = r
		}
	}
	violations := 0
	for k, r := range recs {
		if !strings.EqualFold(k.exp, "E23") || !strings.HasSuffix(k.backend, "-hot-dedup") {
			continue
		}
		if r.Parity != "" && !strings.HasPrefix(r.Parity, "ok") {
			violations++
			fmt.Printf("WARN: E23 %s n=%d batch parity broken (%s): batch disagrees with the query loop\n",
				k.backend, k.n, r.Parity)
		}
		lk := k
		lk.backend = strings.TrimSuffix(k.backend, "-dedup")
		lr, ok := loops[lk]
		if !ok || lr.BatchNsOp <= 0 || r.BatchNsOp <= 0 {
			continue
		}
		if speedup := lr.BatchNsOp / r.BatchNsOp; speedup < minSpeedup {
			violations++
			fmt.Printf("WARN: E23 %s n=%d hot-batch speedup only %.2fx over the query loop (want ≥%.1fx; %.0fns vs %.0fns)\n",
				k.backend, k.n, speedup, minSpeedup, r.BatchNsOp, lr.BatchNsOp)
		}
	}
	return violations
}

// checkAdaptiveInvariant is the E24 intra-run bound on the fresh file:
// after the mid-stream mix flip the adaptive engine must (a) have
// replanned at least once — a zero replan count means the drift
// detector slept through a flipped workload — (b) serve the drifted
// query list ≥1.3× faster than the frozen control at the same
// (n, shards) — the adaptive-replanning PR's acceptance bar — and (c)
// carry an ok parity fingerprint: the epoch-fenced swap is contractually
// answer-preserving (NN≠0 bit-identical, π/E[d] within 1e-12 of the
// monolithic oracle), so a mismatch is a correctness bug whatever the
// timings say.
func checkAdaptiveInvariant(recs map[key]experiments.BenchRecord) int {
	const minSpeedup = 1.3
	frozen := map[key]experiments.BenchRecord{}
	for k, r := range recs {
		if strings.EqualFold(k.exp, "E24") && strings.HasSuffix(k.backend, "-frozen") {
			k.backend = strings.TrimSuffix(k.backend, "-frozen")
			frozen[k] = r
		}
	}
	violations := 0
	for k, r := range recs {
		if !strings.EqualFold(k.exp, "E24") || !strings.HasSuffix(k.backend, "-adaptive") {
			continue
		}
		if r.Replans == 0 {
			violations++
			fmt.Printf("WARN: E24 %s n=%d never replanned under the flipped mix (drift detector asleep)\n",
				k.backend, k.n)
		}
		if r.Parity != "" && !strings.HasPrefix(r.Parity, "ok") {
			violations++
			fmt.Printf("WARN: E24 %s n=%d replan parity broken (%s): swapped fleet disagrees with the oracle\n",
				k.backend, k.n, r.Parity)
		}
		fk := k
		fk.backend = strings.TrimSuffix(k.backend, "-adaptive")
		fr, ok := frozen[fk]
		if !ok || fr.QueryNsOp <= 0 || r.QueryNsOp <= 0 {
			continue
		}
		if speedup := fr.QueryNsOp / r.QueryNsOp; speedup < minSpeedup {
			violations++
			fmt.Printf("WARN: E24 %s n=%d post-drift speedup only %.2fx over the frozen plan (want ≥%.1fx; %.0fns vs %.0fns)\n",
				k.backend, k.n, speedup, minSpeedup, r.QueryNsOp, fr.QueryNsOp)
		}
	}
	return violations
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
