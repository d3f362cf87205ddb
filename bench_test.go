// Benchmarks: one per reproduced experiment (E1–E15, see DESIGN.md §4 and
// EXPERIMENTS.md). Each benchmark times the core operation the paper's
// claim is about; `go run ./cmd/unnbench` prints the corresponding full
// tables.
package unn_test

import (
	"bytes"
	"math/rand"
	"testing"

	"unn"
	"unn/internal/constructions"
	"unn/internal/engine"
	"unn/internal/experiments"
	"unn/internal/geom"
	"unn/internal/nonzero"
	"unn/internal/quantify"
	"unn/internal/uncertain"
)

func randQueries(n int, side float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Point, n)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return qs
}

// E1 / Theorem 2.5: exact vertex census of V≠0 on random disks.
func BenchmarkE1_DiskComplexityCensus_n24(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	disks := constructions.RandomDisks(rng, 24, 40, 0.5, 2.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonzero.CountDiskComplexity(disks, nonzero.GammaOptions{}, 0)
	}
}

// E2 / Theorem 2.7: census on the Ω(n³) mixed-radius construction.
func BenchmarkE2_LowerBoundMixed_m3(b *testing.B) {
	disks := constructions.LowerBoundMixed(3)
	n := len(disks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonzero.CountDiskComplexity(disks, nonzero.GammaOptions{}, 32*n*n)
	}
}

// E3 / Theorem 2.8: census on the Ω(n³) equal-radius construction.
func BenchmarkE3_LowerBoundEqual_m4(b *testing.B) {
	disks := constructions.LowerBoundEqual(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonzero.CountDiskComplexity(disks, nonzero.GammaOptions{Grid: 4096}, 1<<15)
	}
}

// E4 / Theorem 2.10: census on the Ω(n²) disjoint construction.
func BenchmarkE4_LowerBoundDisjoint_m8(b *testing.B) {
	disks := constructions.LowerBoundDisjoint(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonzero.CountDiskComplexity(disks, nonzero.GammaOptions{Grid: 4096}, 1<<15)
	}
}

// E5 / Theorem 2.14: building the exact discrete V≠0 diagram.
func BenchmarkE5_DiscreteDiagramBuild_n8k3(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := constructions.RandomDiscrete(rng, 8, 3, 30, 2.5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unn.BuildDiscreteDiagram(pts, unn.DiagramOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E6 / Theorems 2.11 & 3.1: the three ways to answer NN≠0 over disks.
func BenchmarkE6_DiagramQuery_n32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	disks := constructions.RandomDisks(rng, 32, 40, 0.5, 2.0)
	diag, err := unn.BuildDiskDiagram(disks, unn.DiagramOptions{})
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 40, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diag.Query(qs[i%len(qs)])
	}
}

func BenchmarkE6_TwoStageDiskQuery_n32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	disks := constructions.RandomDisks(rng, 32, 40, 0.5, 2.0)
	ts := unn.NewTwoStageDisks(disks)
	qs := randQueries(256, 40, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Query(qs[i%len(qs)])
	}
}

func BenchmarkE6_BruteQuery_n32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	disks := constructions.RandomDisks(rng, 32, 40, 0.5, 2.0)
	qs := randQueries(256, 40, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonzero.BruteDisks(disks, qs[i%len(qs)])
	}
}

// E7 / Theorem 3.2: the discrete two-stage structure at N = 3200.
func BenchmarkE7_TwoStageDiscreteQuery_N3200(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := constructions.RandomDiscrete(rng, 800, 4, 100, 1.5, 1)
	ts := unn.NewTwoStageDiscrete(pts)
	qs := randQueries(256, 100, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Query(qs[i%len(qs)])
	}
}

// E8 / Lemma 4.1, Theorem 4.2: building and querying V_Pr.
func BenchmarkE8_VPrBuild_N12(b *testing.B) {
	pts := constructions.VPrLowerBound(6, rand.New(rand.NewSource(7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unn.BuildVPr(pts, unn.VPrOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8_VPrQuery_N12(b *testing.B) {
	pts := constructions.VPrLowerBound(6, rand.New(rand.NewSource(7)))
	v, err := unn.BuildVPr(pts, unn.VPrOptions{})
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 4, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Query(qs[i%len(qs)])
	}
}

// E9 / Theorem 4.3: Monte-Carlo queries, kd-tree vs Delaunay backends.
func BenchmarkE9_MCQuery_KDTree_s800(b *testing.B) {
	benchMCQuery(b, quantify.MCKDTree)
}

func BenchmarkE9_MCQuery_Delaunay_s800(b *testing.B) {
	benchMCQuery(b, quantify.MCDelaunay)
}

func benchMCQuery(b *testing.B, backend quantify.MCBackend) {
	rng := rand.New(rand.NewSource(9))
	pts := constructions.RandomDiscrete(rng, 20, 4, 30, 2, 1)
	upts := nonzero.DiscreteAsUncertain(pts)
	mc, err := quantify.NewMonteCarlo(upts, 800, quantify.MCOptions{Backend: backend, Rng: rng})
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 30, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Query(qs[i%len(qs)])
	}
}

// E10 / Theorem 4.5: instantiating + preprocessing continuous points.
func BenchmarkE10_ContinuousMCBuild_n10s200(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var pts []uncertain.Point
	for i := 0; i < 10; i++ {
		d := geom.DiskAt(rng.Float64()*30, rng.Float64()*30, 1+rng.Float64())
		pts = append(pts, uncertain.NewTruncGauss(d, d.R/2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quantify.NewMonteCarlo(pts, 200, quantify.MCOptions{Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// E11 / Theorem 4.7: spiral search vs the exact sweep at N = 16000.
func BenchmarkE11_SpiralQuery_N16000(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pts := constructions.RandomDiscrete(rng, 4000, 4, 200, 1.5, 8)
	sp, err := unn.NewSpiral(pts)
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 200, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Query(qs[i%len(qs)], 0.05)
	}
}

func BenchmarkE11_ExactQuery_N16000(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pts := constructions.RandomDiscrete(rng, 4000, 4, 200, 1.5, 8)
	qs := randQueries(64, 200, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantify.ExactAt(pts, qs[i%len(qs)])
	}
}

// E12 / §4.3 Remark (i): exact evaluation on the adversarial instance.
func BenchmarkE12_RemarkExact(b *testing.B) {
	pts, q := constructions.RemarkInstance(0.01, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantify.ExactAt(pts, q)
	}
}

// E13 / Figure 1: the closed-form distance cdf of a uniform disk.
func BenchmarkE13_UniformDiskCDF(b *testing.B) {
	u := uncertain.UniformDisk{D: geom.DiskAt(0, 0, 5)}
	q := geom.Pt(6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.DistCDF(q, 5+10*float64(i%100)/100)
	}
}

// E14 / §1.2: expected-distance NN queries ([AESZ12] semantics).
func BenchmarkE14_ExpectedNNQuery_n1000(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	pts := constructions.RandomDiscrete(rng, 1000, 4, 100, 2, 1)
	ix, err := unn.NewExpectedIndex(pts)
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 100, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.NNExpected(qs[i%len(qs)])
	}
}

// E15 / Theorem 2.5: full V≠0 diagram construction over disks.
func BenchmarkE15_DiskDiagramBuild_n16(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	disks := constructions.RandomDisks(rng, 16, 40, 0.5, 2.0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unn.BuildDiskDiagram(disks, unn.DiagramOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E16 / engine layer: a query stream through the unified engine — the
// Monte-Carlo backend behind unn.Open, batched across the worker pool.
func BenchmarkE16_EngineBatchMC_n1000(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	pts := constructions.RandomDiscrete(rng, 1000, 3, 200, 2.0, 1)
	h, err := unn.OpenDiscrete(pts,
		unn.WithBackend(unn.BackendMonteCarlo), unn.WithMCRounds(48), unn.WithMCParallel())
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 200, 22)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.BatchProbs(qs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// E17 / sharded engine: the E17 shard-scaling workload through
// unn.Open with the sharded execution layer at k = 8.
func BenchmarkE17_ShardedBatch_n2000_k8(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 2000, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.BatchNonzero(qs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18_DynamicMutation measures one insert+delete round trip on
// a sharded handle (the amortized streaming-mutation cost of the
// dynamic shard layer, experiment E18).
func BenchmarkE18_DynamicMutation_n2000_k16(b *testing.B) {
	rng := rand.New(rand.NewSource(0xe18))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithShards(16))
	if err != nil {
		b.Fatal(err)
	}
	pool := constructions.RandomDiscrete(rng, 1024, 2, 2000, 2.0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
		if err := h.Delete(rng.Intn(2000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE20_BatchMutate measures one 64-mutation burst through the
// epoch-coalesced BatchMutate path (experiment E20) — compare against
// 64 iterations of BenchmarkE18_DynamicMutation's per-item path.
func BenchmarkE20_BatchMutate_n2000_k16(b *testing.B) {
	rng := rand.New(rand.NewSource(0xe20))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithShards(16))
	if err != nil {
		b.Fatal(err)
	}
	pool := constructions.RandomDiscrete(rng, 1024, 2, 2000, 2.0, 1)
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms := make([]unn.Mutation, 64)
		for j := range ms {
			if j%2 == 0 {
				ms[j] = unn.InsertMutation(pool[next%len(pool)])
				next++
			} else {
				ms[j] = unn.DeleteMutation(rng.Intn(2000))
			}
		}
		if _, err := h.BatchMutate(ms); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE20_BufferedInsert measures the amortized buffered insert on
// a WithInsertBuffer fleet (the log-structured append of E20).
func BenchmarkE20_BufferedInsert_n2000_k16(b *testing.B) {
	rng := rand.New(rand.NewSource(0xe20b))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithShards(16), unn.WithInsertBuffer(0))
	if err != nil {
		b.Fatal(err)
	}
	pool := constructions.RandomDiscrete(rng, 1024, 2, 2000, 2.0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE19_PlannerMixed measures the cost-based planner's composite
// on the E19 mixed workload (NN≠0 / π / E[d] interleaved) — the
// counterpart of the rule-based-auto baseline below it.
func BenchmarkE19_PlannerMixed_n2000(b *testing.B) {
	benchmarkE19(b, true)
}

// BenchmarkE19_AutoMixed is the rule-based auto router on the same
// mixed workload (the E19 baseline).
func BenchmarkE19_AutoMixed_n2000(b *testing.B) {
	benchmarkE19(b, false)
}

func benchmarkE19(b *testing.B, planner bool) {
	rng := rand.New(rand.NewSource(0xe19))
	pts := constructions.RandomDiscrete(rng, 2000, 3, 20000, 2.0, 1)
	opts := []unn.Option{}
	if planner {
		opts = append(opts, unn.WithPlanner())
	}
	h, err := unn.OpenDiscrete(pts, opts...)
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(96, 20000, 0xe19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi, q := range qs {
			switch qi % 3 {
			case 0:
				_, err = h.QueryNonzero(q)
			case 1:
				_, err = h.QueryProbs(q, 0)
			default:
				_, _, err = h.QueryExpected(q)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Guard: the experiment registry stays in sync with the benchmarks above.
func TestExperimentRegistryCovered(t *testing.T) {
	if len(experiments.All) != 24 {
		t.Fatalf("registry has %d experiments; update bench_test.go", len(experiments.All))
	}
}

// E6 extension: the trapezoidal-map querier (the literal Theorem 2.11
// structure) on the same workload as the slab-based diagram.
func BenchmarkE6_TrapMapQuery_n32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	disks := constructions.RandomDisks(rng, 32, 40, 0.5, 2.0)
	diag, err := unn.BuildDiskDiagram(disks, unn.DiagramOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tq, err := unn.NewTrapQuerier(diag, rng)
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 40, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tq.Query(qs[i%len(qs)])
	}
}

// E9 extension: parallel Monte-Carlo construction.
func BenchmarkE9_MCBuildParallel_s800(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := constructions.RandomDiscrete(rng, 20, 4, 30, 2, 1)
	upts := nonzero.DiscreteAsUncertain(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quantify.NewMonteCarloParallel(upts, 800, quantify.MCOptions{Rng: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

// E11 extension: quadtree retrieval backend (§4.3 Remark ii, [Har11]).
func BenchmarkE11_SpiralQuadtreeQuery_N16000(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pts := constructions.RandomDiscrete(rng, 4000, 4, 200, 1.5, 8)
	sp, err := unn.NewSpiralQuadtree(pts)
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 200, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Query(qs[i%len(qs)], 0.05)
	}
}

// E6 extension: the L∞ two-stage structure (remark after Theorem 3.1).
func BenchmarkE6_TwoStageLinfQuery_n32(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	squares := make([]unn.Square, 32)
	for i := range squares {
		squares[i] = unn.Square{
			C: geom.Pt(rng.Float64()*40, rng.Float64()*40),
			R: 0.5 + rng.Float64()*1.5,
		}
	}
	ts := unn.NewTwoStageLinf(squares)
	qs := randQueries(256, 40, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Query(qs[i%len(qs)])
	}
}

// E16 extension (flat-kernel PR): single NN≠0 query on the brute engine
// via the zero-alloc entry point. Pre-kernel baseline (AoS double-pass
// oracle through Engine.QueryNonzero): ≈44µs/op, 1 alloc/op on the
// bench/history reference box; the fused SoA kernel halves the hypot
// count and the scratch arena removes the steady-state allocations
// (bench/history/README.md has the interleaved A/B numbers).
func BenchmarkE16_SingleNonzero_Brute_n1000(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	pts := constructions.RandomDiscrete(rng, 1000, 3, 10000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendBrute))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 10000, 22)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.QueryNonzeroInto(qs[i%len(qs)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// E17 extension (flat-kernel PR): single NN≠0 query through the sharded
// merge, k = 8 shards. Pre-kernel baseline (per-shard AoS backend calls
// + per-query candidate allocations): ≈18.5µs/op, 7 allocs/op; the flat
// merge applies the Lemma 2.1 filter directly to shard member rows from
// one pooled scratch (≈3× faster, 0 allocs/op steady state).
func BenchmarkE17_SingleNonzero_Sharded_n2000_k8(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendBrute), unn.WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 2000, 24)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.QueryNonzeroInto(qs[i%len(qs)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// E21 extension (snapshot PR): the same sharded single-query workload as
// BenchmarkE17_SingleNonzero_Sharded, but on a handle restored from a
// binary snapshot instead of the live-built one. Guards the snapshot
// small-fix: restored shards must come up wired through the pooled
// flat-kernel path, so steady-state queries stay at 0 allocs/op
// (`make bench-allocs` greps every SingleNonzero benchmark).
func BenchmarkE21_SingleNonzero_Restored_n2000_k8(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	built, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendBrute), unn.WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if err := built.Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	h, err := unn.OpenSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 2000, 24)
	buf := make([]int, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.QueryNonzeroInto(qs[i%len(qs)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// BenchmarkE22_TopK measures the registry-dispatched top-k
// most-likely-NN kind on a sharded discrete engine; pairs with the
// π benchmark below it — the E22 claim is that top-k costs one π
// sweep plus an O(n log k) selection.
func BenchmarkE22_TopK_n2000_k8(b *testing.B) {
	benchmarkE22(b, true)
}

func BenchmarkE22_Probs_n2000_k8(b *testing.B) {
	benchmarkE22(b, false)
}

// BenchmarkE23_BatchDedup drives the batch executor through the
// allocation-aware entry point on the E17 sharded workload: one
// 256-query batch per iteration, destination slots recycled across
// iterations. `make bench-allocs` requires it alongside the
// SingleNonzero ones — the batch path's bar is 0 allocs/op steady
// state (pooled scratch, sort-based in-batch dedup, no per-batch maps
// or closures).
func BenchmarkE23_BatchDedup_n2000_k8(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendBrute), unn.WithShards(8),
		unn.WithWorkers(1))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 2000, 24)
	var dst [][]int
	if dst, err = h.BatchNonzeroInto(qs, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = h.BatchNonzeroInto(qs, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkE22(b *testing.B, topk bool) {
	rng := rand.New(rand.NewSource(0xe22))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithBackend(unn.BackendBrute), unn.WithShards(8))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(256, 2000, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		if topk {
			_, err = h.QueryTopK(q, 10, 0)
		} else {
			_, err = h.QueryProbs(q, 0)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE24_Adaptive measures post-drift steady-state serving on an
// adaptive handle: the setup flips an E[d]-heavy stream at a
// planner-built sharded handle until the loop detects the drift and
// swaps a replanned fleet in, then the measured loop serves E[d]
// queries off the swapped plan (the regime the E24 claim is about —
// the frozen counterpart keeps the brute scan the π-era plan left on
// every shard).
func BenchmarkE24_Adaptive(b *testing.B) {
	rng := rand.New(rand.NewSource(0xe24))
	pts := constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1)
	h, err := unn.OpenDiscrete(pts, unn.WithAdaptivePlanner(), unn.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	qs := randQueries(512, 2000, 24)
	for w := 0; w < 64 && h.Stats().Replans == 0; w++ {
		for _, q := range qs {
			if _, _, err := h.QueryExpected(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	if h.Stats().Replans == 0 {
		b.Fatal("adaptive loop never replanned under the E[d]-heavy stream")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.QueryExpected(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE24_AdaptiveObserve pins the observation path's allocation
// contract: with the adaptive loop enabled, the per-query overhead is
// one atomic countdown add, and the window tick folds the counters into
// the EWMA profiles entirely on the stack — so the NN≠0 hot path must
// stay 0 allocs/op even while the loop observes (`make bench-allocs`
// greps this benchmark). Drift thresholds sit at the ceiling so a
// replan (which does allocate, off the query path) cannot fire
// mid-measurement.
func BenchmarkE24_AdaptiveObserve_n2000_k8(b *testing.B) {
	rng := rand.New(rand.NewSource(0xe24))
	ds := engine.FromDiscrete(constructions.RandomDiscrete(rng, 2000, 2, 2000, 2.0, 1))
	ix, _, err := engine.BuildPlanned(ds, engine.BuildOptions{},
		engine.ShardOptions{Shards: 8}, engine.PlannerOptions{NoProbe: true})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.NewEngine(ix, engine.Options{AdaptiveReplan: &engine.AdaptiveOptions{
		Window: 64,
		Drift:  engine.DriftThresholds{ErrFactor: 1e9, MixDelta: 1},
	}})
	qs := randQueries(256, 2000, 24)
	buf := make([]int, 0, 64)
	for _, q := range qs {
		out, err := eng.QueryNonzeroInto(q, buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := eng.QueryNonzeroInto(qs[i%len(qs)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}
