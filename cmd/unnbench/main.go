// Command unnbench regenerates every experiment table of EXPERIMENTS.md
// (one table per reproduced theorem/figure of the paper) and the
// machine-readable engine benchmark used to track the perf trajectory
// across PRs.
//
// Usage:
//
//	unnbench                 # run every experiment (full sweeps)
//	unnbench -quick          # CI-sized sweeps
//	unnbench -exp E2,E11     # selected experiments
//	unnbench -list           # list experiments and claims
//	unnbench -seed 42        # reproducible workloads
//	unnbench -json out.json  # engine benchmark → machine-readable JSON
//	unnbench -snapshot p.unns  # persist/reuse the E21 flagship index
//
// With -json, the engine sweep (E16) runs every adapted backend through
// the unified engine layer, the shard-scaling sweep (E17) runs the
// sharded execution layer at k ∈ {0,1,2,4,8,NumCPU}, the streaming
// sweep (E18) runs interleaved insert/delete/query against the dynamic
// shard layer (amortized mutation cost vs the full-rebuild baseline),
// the planner sweep (E19) pits the cost-based query planner against the
// rule-based auto router on a mixed NN≠0/π/E[d] workload, the mutation-
// batching sweep (E20) pits BatchMutate bursts against per-item
// mutations and measures the insert buffer's amortization (batched vs
// per-item ns/op, buffer hit fraction), the snapshot sweep (E21) times
// restoring an engine from its versioned binary snapshot against the
// cold build it replaces (snapshot_load_ns vs build_ns, snapshot_bytes,
// and a parity checksum over NN≠0 answers), the top-k sweep (E22) runs
// the registry-added kind across the execution layers, and the
// batch sweep (E23) pits the batch executor (in-batch dedup over the
// single-query path) against a per-query loop on hot-skew and unique
// workloads, and the drift sweep (E24) flips the
// query mix mid-stream and pits the adaptive replanning loop (observe →
// drift-detect → per-shard replan → atomic swap) against the frozen
// build-time plan (replans, replan_reason, and an exactness parity
// fingerprint against a monolithic oracle). Records of the form
//
//	{"backend": "montecarlo", "n": 1000, "queries": 256, "workers": 8,
//	 "build_ns": ..., "query_ns_op": ..., "batch_ns_op": ...,
//	 "shards": ..., "cache_hit_rate": ..., "cache_quantum": ...,
//	 "mutate_ns_op": ..., "rebuild_ns_op": ..., "plan": ...}
//
// are written to the given path (conventionally BENCH_engine.json),
// alongside the usual tables on stdout. cmd/benchdiff compares two such
// files and flags throughput regressions across runs (including the
// planner falling behind the rule-based auto), and the same file doubles
// as the planner's calibration table (unn.WithCalibration).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"unn/internal/experiments"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast run")
		exp      = flag.String("exp", "", "comma-separated experiment IDs (default: all)")
		seed     = flag.Int64("seed", 0, "workload seed (0 = default)")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonPath = flag.String("json", "", "write the engine benchmark (E16) as JSON to this path")
		snapPath = flag.String("snapshot", "", "persist the E21 flagship index snapshot to this path and reuse it across runs")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed, SnapshotPath: *snapPath}

	if *jsonPath != "" {
		recs, tab := experiments.EngineBench(opt)
		if _, err := tab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		shardRecs, shardTab := experiments.ShardBench(opt)
		if _, err := shardTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, shardRecs...)
		streamRecs, streamTab := experiments.StreamBench(opt)
		if _, err := streamTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, streamRecs...)
		planRecs, planTab := experiments.PlannerBench(opt)
		if _, err := planTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, planRecs...)
		mutRecs, mutTab := experiments.MutationBench(opt)
		if _, err := mutTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, mutRecs...)
		snapRecs, snapTab := experiments.SnapshotBench(opt)
		if _, err := snapTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, snapRecs...)
		topkRecs, topkTab := experiments.TopKBench(opt)
		if _, err := topkTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, topkRecs...)
		batchRecs, batchTab := experiments.BatchDedupBench(opt)
		if _, err := batchTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, batchRecs...)
		adaptRecs, adaptTab := experiments.AdaptiveBench(opt)
		if _, err := adaptTab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		recs = append(recs, adaptRecs...)
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteBenchJSON(f, recs); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "unnbench: wrote %d records to %s\n", len(recs), *jsonPath)
		if *exp == "" {
			return
		}
	}

	var ids []string
	if *exp == "" {
		for _, e := range experiments.All {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		run, ok := experiments.Lookup(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unnbench: unknown experiment %q\n", id)
			os.Exit(2)
		}
		tab := run(opt)
		if _, err := tab.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unnbench: %v\n", err)
	os.Exit(1)
}
