// Command perfbench is the repository benchmark. It drives three
// workloads through the public unn API and checks every sampled answer
// against a brute-force oracle:
//
//	uniq   closed loop, 2 clients, single queries at unique points
//	hot    closed loop, 1 client, 128-query batches over a Zipf hot set
//	churn  open loop over Handle.Serve with inserts, deletes and a mix flip
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it makes a separate traced run: spans around every
// workload op, then replays of the same inputs one layer down (Index(),
// the flat kernels), structure builds, mutations, a replan and a
// snapshot round trip, and it reports the per-layer metrics. Run it from
// the repository root:
//
//	bash perfbench/run.sh --workload uniq --seed 1 --seconds 30 --trace 0
//
// --workload all runs the three workloads in turn; --describe prints each
// workload's client model and dataset and the end-to-end metric each
// per-layer metric should move. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every dataset size: 1 in real runs, small in the
	// smoke test.
	scale float64
	// traceDir receives the traced run's spans (one JSON line each);
	// empty keeps them in memory only.
	traceDir string
	// calibration is the planner cost table churn's fleet is planned
	// with. A fixed table keeps the plan the same from run to run; the
	// default Build-time micro-probe lets timing noise flip shards to
	// other backends.
	calibration string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one reported metric. For a per-layer metric, moves
// names the end-to-end metric (and workload) it should move.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics of the untraced run, reported by every
// workload. A "request" is one Query* call (uniq), one Batch* call of
// 128 queries (hot) or one Serve op timed from its due time (churn).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},          // median Open (uniq, hot) or OpenSnapshot (churn)
	{name: "throughput_qps", unit: "1/s"}, // query answers (and writes) completed per second
	{name: "p99_us", unit: "us"},          // 99th percentile over every request
	{name: "nonzero_p10_us", unit: "us"},  // fastest tenth of NN≠0 requests
	{name: "expected_p10_us", unit: "us"}, // fastest tenth of E[d] requests
}

// perLayer are the metrics of the traced run, reported by every
// workload; a layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"engine.dispatch_us", "us", "nonzero_p10_us@uniq"},
	{"engine.cache.hit_ratio", "ratio", "nonzero_p10_us@hot expected_p10_us@hot throughput_qps@hot nonzero_p10_us@churn"},
	{"engine.cache.hit_us", "us", "nonzero_p10_us@hot expected_p10_us@hot"},
	{"engine.batch.computed_per_query", "count", "nonzero_p10_us@hot expected_p10_us@hot"},
	{"engine.batch.tile_occupancy", "ratio", "nonzero_p10_us@hot expected_p10_us@hot"},
	{"engine.batch.mean_size", "count", "p99_us@churn"},
	{"engine.shard.visits_per_query.nonzero", "count", "nonzero_p10_us@uniq"},
	{"engine.shard.visits_per_query.probs", "count", "throughput_qps@uniq p99_us@uniq"},
	{"engine.shard.visits_per_query.expected", "count", "expected_p10_us@uniq"},
	{"engine.shard.index_us.nonzero", "us", "nonzero_p10_us@uniq"},
	{"engine.shard.index_us.probs", "us", "throughput_qps@uniq p99_us@uniq"},
	{"engine.shard.index_us.expected", "us", "expected_p10_us@uniq"},
	{"engine.shard.index_us.topk", "us", "throughput_qps@uniq p99_us@uniq"},
	{"engine.shard.count", "count", "p99_us@churn"},
	{"kernel.nonzero_ns_per_row", "ns", "nonzero_p10_us@uniq"},
	{"kernel.expected_ns_per_row", "ns", "expected_p10_us@uniq"},
	{"kernel.distcdf_ns", "ns", "throughput_qps@uniq p99_us@uniq"},
	{"kernel.tile_nonzero_ns_per_lane_row", "ns", "nonzero_p10_us@hot"},
	{"kernel.lower_ms", "ms", "setup_s@uniq"},
	{"nonzero.twostage.build_ms", "ms", "p99_us@churn"},
	{"quantify.spiral.build_ms", "ms", "p99_us@churn"},
	{"expected.build_ms", "ms", "p99_us@churn"},
	{"nonzero.twostage.query_us", "us", "nonzero_p10_us@churn"},
	{"quantify.spiral.query_us", "us", "p99_us@churn"},
	{"expected.query_us", "us", "expected_p10_us@churn"},
	{"engine.dynamic.insert_us", "us", "p99_us@churn"},
	{"engine.dynamic.delete_us", "us", "p99_us@churn"},
	{"engine.dynamic.epochs_per_mutation", "count", "p99_us@churn"},
	{"engine.dynamic.flushes", "count", "p99_us@churn"},
	{"engine.dynamic.inserts_per_flush", "count", "p99_us@churn"},
	{"engine.serve.admit_wait_p99_us", "us", "p99_us@churn"},
	{"engine.adaptive.replans", "count", "expected_p10_us@churn"},
	{"engine.adaptive.time_to_replan_s", "s", "expected_p10_us@churn"},
	{"engine.adaptive.replan_ms", "ms", "p99_us@churn"},
	{"engine.snapshot.read_ms", "ms", "setup_s@churn"},
	{"engine.snapshot.write_ms", "ms", "setup_s@churn"},
	{"engine.snapshot.bytes", "B", "setup_s@churn"},
	{"loadgen.late_p99_us", "us", "p99_us@churn"},
	{"trace.overhead_ratio", "ratio", "none: the cost of tracing itself"},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "uniq, hot, churn or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured duration of one run")
	flag.IntVar(&trace, "trace", 0, "1 makes the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "directory for the traced run's span files")
	flag.StringVar(&cfg.calibration, "calibration", "perfbench/calibration.json", "planner cost table for the churn fleet")
	describe := flag.Bool("describe", false, "print workloads and the per-layer metric targets, then exit")
	flag.Parse()
	cfg.trace, cfg.scale = trace == 1, 1
	if *describe {
		printDescription(os.Stdout)
		return
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"uniq", "hot", "churn"}
	}
	for _, name := range names {
		c := cfg
		c.workload = name
		rep, sum, err := run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		printSummary(os.Stdout, name, c, rep, sum)
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// run executes one workload and builds its report. The summary lists
// per-kind latencies for the human-readable table.
func run(cfg config) (report, []kindSummary, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return report{}, nil, fmt.Errorf("unknown workload %q (want uniq, hot, churn or all)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return report{}, nil, fmt.Errorf("--seconds must be positive")
	}
	b := newBench(cfg)
	if err := w.run(b); err != nil {
		return report{}, nil, err
	}
	if b.invalid != "" {
		return report{}, nil, fmt.Errorf("run invalid, not reported: %s", b.invalid)
	}
	rep := report{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	defs, values := endToEnd, b.endToEnd()
	if cfg.trace {
		if err := b.replayLayers(); err != nil {
			return report{}, nil, err
		}
		defs, values = perLayer, b.layer
		if err := b.tr.writeFile(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
			return report{}, nil, err
		}
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return report{}, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	rep.Correct = b.failed == 0 && b.attempted > 0
	return rep, b.kindSummaries(), nil
}

// printSummary writes the human-readable table that precedes the JSON
// line: per-kind request latencies, then every reported metric by name
// with its unit (and, for per-layer metrics, its target).
func printSummary(w io.Writer, name string, cfg config, rep report, kinds []kindSummary) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %.0fs, %s): %d attempted, %d failed\n", name, cfg.seed, cfg.seconds, mode, rep.Attempted, rep.Failed)
	if !cfg.trace {
		fmt.Fprintf(w, "%-10s %8s %12s %12s %12s\n", "request", "count", "p10_us", "p50_us", "p99_us")
		for _, k := range kinds {
			fmt.Fprintf(w, "%-10s %8d %12.1f %12.1f %12.1f\n", k.name, k.count, k.p10, k.p50, k.p99)
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Metrics[d.name]
		if d.moves != "" {
			fmt.Fprintf(w, "%-40s %14.4f %-6s moves %s\n", d.name, m.Value, m.Unit, d.moves)
		} else {
			fmt.Fprintf(w, "%-40s %14.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// printDescription writes each workload's client model, dataset and
// handle options, then the per-layer metric targets.
func printDescription(w io.Writer) {
	for _, name := range []string{"uniq", "hot", "churn"} {
		wl := workloads[name]
		fmt.Fprintf(w, "%s\n  why:     %s\n  clients: %s\n  dataset: %s\n", name, wl.why, wl.clients, wl.dataset)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (untraced run, every workload):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %s\n", d.name, d.unit)
	}
	fmt.Fprintln(w, "\nper-layer metrics (traced run, every workload) → end-to-end metric@workload it should move:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-40s %-6s %s\n", d.name, d.unit, d.moves)
	}
}
