package experiments

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"

	"unn/internal/constructions"
	"unn/internal/engine"
	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/uncertain"
)

// randomSquares draws n random L∞ balls (shared by the lmetric backends).
func randomSquares(rng *rand.Rand, n int, side float64) []lmetric.Square {
	sq := make([]lmetric.Square, n)
	for i := range sq {
		sq[i] = lmetric.Square{
			C: geom.Pt(rng.Float64()*side, rng.Float64()*side),
			R: 0.5 + rng.Float64()*1.5,
		}
	}
	return sq
}

// BenchRecord is one row of the machine-readable engine benchmark
// (BENCH_engine.json): one backend at one instance size, with build cost
// and per-query cost through the sequential and parallel batch paths.
// The schema is stable across PRs so the perf trajectory can be tracked.
type BenchRecord struct {
	// Exp tags the sweep that produced the record ("E16" backend sweep,
	// "E17" shard-scaling sweep), so trajectory tooling can select rows
	// without guessing from field shapes.
	Exp       string  `json:"exp"`
	Backend   string  `json:"backend"`
	N         int     `json:"n"`
	Queries   int     `json:"queries"`
	Workers   int     `json:"workers"`
	BuildNs   int64   `json:"build_ns"`
	QueryNsOp float64 `json:"query_ns_op"` // sequential single queries
	BatchNsOp float64 `json:"batch_ns_op"` // parallel batch, per query
	// AllocsPerQuery is the steady-state heap allocations per single
	// NN≠0 query through the zero-alloc path (QueryNonzeroInto), with
	// scratch pools warm; -1 when the row's backend does not serve NN≠0
	// or the sweep does not measure allocations. The flat-kernel PR's
	// acceptance bar is 0 for the brute / two-stage / sharded rows
	// (cmd/benchdiff warns when a measured row drifts above zero).
	AllocsPerQuery float64 `json:"allocs_per_query"`
	// Shards is the shard count of the sharded execution layer; 0 is the
	// monolithic path (all E16 rows, and the E17 baseline row).
	Shards int `json:"shards"`
	// CacheHitRate is the striped-LRU hit rate (hits / lookups, 0–1) on
	// the hotspot serving workload with quantized cache keys.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// MutateNsOp is the amortized per-mutation cost (insert/delete with
	// incremental rebalancing) on the E18 streaming workload; 0 outside
	// E18.
	MutateNsOp float64 `json:"mutate_ns_op,omitempty"`
	// RebuildNsOp is the E18 baseline: the cost of rebuilding the whole
	// sharded index from scratch, i.e. what one mutation would cost
	// without the dynamic layer; 0 outside E18.
	RebuildNsOp float64 `json:"rebuild_ns_op,omitempty"`
	// CacheQuantum is the adaptive cache quantum the hit-rate probe
	// resolved from the built structure (cell extents / centroid
	// spacing); 0 when the probe fell back to exact keys.
	CacheQuantum float64 `json:"cache_quantum,omitempty"`
	// Plan describes the cost-based planner's per-kind backend assignment
	// on the E19 row measuring it; empty elsewhere.
	Plan string `json:"plan,omitempty"`
	// BufferHitRate is the fraction of inserts the E20 log-structured
	// insert buffer absorbed without a main-shard rebuild
	// (1 − flushes/inserts); 0 outside the E20 buffer row.
	BufferHitRate float64 `json:"buffer_hit_rate,omitempty"`
	// SnapshotLoadNs is the time to restore the engine from its binary
	// snapshot (E21); cmd/benchdiff warns when build_ns/snapshot_load_ns
	// falls below the 10× acceptance bar. 0 outside E21.
	SnapshotLoadNs int64 `json:"snapshot_load_ns,omitempty"`
	// SnapshotBytes is the encoded snapshot size (E21); cmd/benchdiff
	// warns when it grows >20% against the committed baseline.
	SnapshotBytes int64 `json:"snapshot_bytes,omitempty"`
	// Parity fingerprints answer equivalence between the live and the
	// restored engine on the E21 row: "ok:<fnv32a over NN≠0 answers>"
	// when live and restored hash identically (and Explain matches).
	// E23 reuses it for batch-vs-query-loop parity. Otherwise the
	// mismatch kind.
	Parity string `json:"parity,omitempty"`
	// Batches and MeanBatchSize surface the batch executor's counters on
	// E23 dedup rows: batches the engine served during the sweep and mean
	// queries per batch. 0 outside E23.
	Batches       uint64  `json:"batches,omitempty"`
	MeanBatchSize float64 `json:"mean_batch_size,omitempty"`
	// Replans and ReplanReason surface the adaptive replanning loop on
	// the E24 adaptive row: how many replan-and-swap cycles the drifted
	// stream triggered and the detector's last reason. 0/"" outside E24
	// and on the frozen row.
	Replans      uint64 `json:"replans,omitempty"`
	ReplanReason string `json:"replan_reason,omitempty"`
}

// WriteBenchJSON renders records as indented JSON (the BENCH_engine.json
// payload).
func WriteBenchJSON(w io.Writer, recs []BenchRecord) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// engineWorkloads describes the per-backend sweep: every adapted backend
// is exercised by this one driver through the same engine.Index
// interface — the point of the engine layer.
type engineWorkload struct {
	backend engine.Backend
	ns      []int // instance sizes (number of uncertain points)
	quickNs []int
	opt     engine.BuildOptions
}

func engineWorkloads() []engineWorkload {
	mc := engine.BuildOptions{MCRounds: 48, MCParallel: true}
	return []engineWorkload{
		{engine.BackendBrute, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
		{engine.BackendDiagram, []int{16, 32}, []int{12}, engine.BuildOptions{}},
		{engine.BackendTwoStageDisks, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
		{engine.BackendTwoStageDiscrete, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
		{engine.BackendVPr, []int{4, 6}, []int{4}, engine.BuildOptions{}},
		{engine.BackendMonteCarlo, []int{200, 1000}, []int{100}, mc},
		{engine.BackendSpiral, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
		{engine.BackendExpected, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
		{engine.BackendTwoStageLinf, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
		{engine.BackendTwoStageL1, []int{200, 1000}, []int{100}, engine.BuildOptions{}},
	}
}

// engineDataset builds the dataset a backend needs at size n, plus the
// side of the square domain it occupies (queries are drawn from the
// same window so the timings reflect typical, not corner, queries).
func engineDataset(b engine.Backend, n int, rng *rand.Rand) (*engine.Dataset, float64) {
	switch b {
	case engine.BackendDiagram, engine.BackendTwoStageDisks:
		return engine.FromDisks(constructions.RandomDisks(rng, n, 40, 0.5, 2.0)), 40
	case engine.BackendTwoStageLinf, engine.BackendTwoStageL1:
		return engine.FromSquares(randomSquares(rng, n, 40)), 40
	default:
		// Side grows with n to keep the location density constant.
		side := 10 * float64(n)
		return engine.FromDiscrete(constructions.RandomDiscrete(rng, n, 3, side, 2.0, 1)), side
	}
}

// EngineBench runs every adapted backend through the engine layer —
// build, 256 single queries, and the same 256 queries through the
// parallel batch path — and returns the machine-readable records plus
// the human-readable table.
func EngineBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E16",
		Title:  "engine layer: every backend through one Index interface",
		Claim:  "one driver exercises all backends; batch path parallelizes the hot loop",
		Header: []string{"backend", "n", "build", "singleQ", "batchQ", "workers", "allocs", "cacheHit"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	var recs []BenchRecord
	for _, w := range engineWorkloads() {
		ns := w.ns
		if opt.Quick {
			ns = w.quickNs
		}
		for _, n := range ns {
			ds, side := engineDataset(w.backend, n, rng)
			var ix engine.Index
			var err error
			build := timeIt(func() { ix, err = engine.Build(w.backend, ds, w.opt) })
			if err != nil {
				t.Note("%s n=%d: %v", w.backend, n, err)
				continue
			}
			eng := engine.NewEngine(ix, engine.Options{})
			qs := make([]geom.Point, 256)
			for i := range qs {
				qs[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
			}
			caps := ix.Capabilities()
			var single, batchTot time.Duration
			run := func(one func(q geom.Point) error, all func() error) error {
				single = timePer(len(qs), func(i int) {
					if e := one(qs[i]); e != nil && err == nil {
						err = e
					}
				})
				batchTot = timeIt(func() {
					if e := all(); e != nil && err == nil {
						err = e
					}
				})
				return err
			}
			switch {
			case caps.Has(engine.CapNonzero):
				err = run(
					func(q geom.Point) error { _, e := eng.QueryNonzero(q); return e },
					func() error { _, e := eng.BatchNonzero(qs); return e })
			case caps.Has(engine.CapProbs):
				err = run(
					func(q geom.Point) error { _, e := eng.QueryProbs(q, 0); return e },
					func() error { _, e := eng.BatchProbs(qs, 0); return e })
			default:
				err = run(
					func(q geom.Point) error { _, _, e := eng.QueryExpected(q); return e },
					func() error { _, e := eng.BatchExpected(qs); return e })
			}
			if err != nil {
				t.Note("%s n=%d: %v", w.backend, n, err)
				continue
			}
			batchPer := batchTot / time.Duration(len(qs))
			allocs := -1.0
			if caps.Has(engine.CapNonzero) {
				allocs = allocsPerQuery(eng, qs)
			}
			hitRate, quantum := cacheHitRate(ix, caps, side, opt.seed()+int64(n))
			recs = append(recs, BenchRecord{
				Exp:            "E16",
				Backend:        string(w.backend),
				N:              n,
				Queries:        len(qs),
				Workers:        eng.Workers(),
				BuildNs:        build.Nanoseconds(),
				QueryNsOp:      float64(single.Nanoseconds()),
				BatchNsOp:      float64(batchPer.Nanoseconds()),
				AllocsPerQuery: allocs,
				CacheHitRate:   hitRate,
				CacheQuantum:   quantum,
			})
			t.AddRow(string(w.backend), itoa(n), dtoa(build), dtoa(single), dtoa(batchPer),
				itoa(eng.Workers()), allocsCell(allocs), ftoa(hitRate))
		}
	}
	t.Note("batchQ is per-query cost through the parallel batch path (workers = NumCPU)")
	t.Note("allocs is steady-state heap allocations per NN≠0 query via QueryNonzeroInto (- = backend has no NN≠0 path)")
	t.Note("cacheHit is the striped-LRU hit rate on a hotspot workload with quantized keys")
	return recs, t
}

// allocsCell renders an allocs-per-query figure for the table (-1 = not
// measured).
func allocsCell(a float64) string {
	if a < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", a)
}

// allocsPerQuery measures steady-state heap allocations per NN≠0 query
// through the zero-alloc entry point. The warmup pass populates the
// scratch pools and grows the result buffer to its high-water mark;
// the explicit GC then empties the pools, so the measured figure
// honestly charges the one-time pool refill — amortized over the
// measured rounds it stays ≪ 1 for a genuinely allocation-free path.
func allocsPerQuery(eng *engine.Engine, qs []geom.Point) float64 {
	const rounds = 4
	buf := make([]int, 0, 64)
	for _, q := range qs {
		out, err := eng.QueryNonzeroInto(q, buf[:0])
		if err != nil {
			return -1
		}
		buf = out[:0]
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < rounds; r++ {
		for _, q := range qs {
			out, _ := eng.QueryNonzeroInto(q, buf[:0])
			buf = out[:0]
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(qs))
}

// cacheHitRate measures the striped LRU on a localized serving workload:
// 256 queries cluster around hotspots and cache keys snap to the
// *adaptive* quantum grid — the engine derives the quantum from the
// built structure (diagram cell extents, centroid spacing) — so the rate
// reflects how much answer sharing the workload admits at the
// granularity the structure itself reports. Queries scatter around each
// hotspot at the resolved quantum's scale (repeat lookups near a cached
// answer), so the rate stays comparable as the derivation changes. The
// resolved quantum is returned alongside the rate and recorded in
// BENCH_engine.json.
//
// The probe owns its rng (derived from the caller's seed, not the shared
// sweep stream): consuming the sweep rng here would shift every workload
// generated after it, breaking cross-PR comparability of the records at
// a fixed -seed.
func cacheHitRate(ix engine.Index, caps engine.Capability, side float64, seed int64) (rate, quantum float64) {
	const nq = 256
	rng := rand.New(rand.NewSource(seed ^ 0xcac4e))
	eng := engine.NewEngine(ix, engine.Options{CacheSize: nq, CacheQuantum: -1})
	quantum = eng.CacheQuantum()
	scatter := quantum
	if scatter <= 0 {
		scatter = side / 64
	}
	hotspots := make([]geom.Point, 24)
	for i := range hotspots {
		hotspots[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	for i := 0; i < nq; i++ {
		h := hotspots[rng.Intn(len(hotspots))]
		q := geom.Pt(h.X+rng.NormFloat64()*scatter, h.Y+rng.NormFloat64()*scatter)
		switch {
		case caps.Has(engine.CapNonzero):
			eng.QueryNonzero(q)
		case caps.Has(engine.CapProbs):
			eng.QueryProbs(q, 0)
		default:
			eng.QueryExpected(q)
		}
	}
	hits, misses := eng.CacheStats()
	if hits+misses == 0 {
		return 0, quantum
	}
	return float64(hits) / float64(hits+misses), quantum
}

// ShardBench (E17) sweeps the sharded execution layer on the E17
// workload — a spread-out discrete instance (local query structure, so
// bbox pruning bites) behind the brute backend — and measures batch
// throughput at shard counts k ∈ {0 (monolithic), 1, 2, 4, 8, NumCPU}.
// The acceptance criterion of the sharding PR is ≥1.5× batch throughput
// at k = NumCPU over the monolithic batch path.
func ShardBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E17",
		Title:  "sharded execution layer: shard-scaling sweep (brute backend)",
		Claim:  "per-shard backends + bbox pruning: sharded batch ≥1.5× unsharded batch",
		Header: []string{"n", "shards", "build", "singleQ", "batchQ", "speedup", "allocs", "cacheHit"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n := 2000
	if opt.Quick {
		n = 800
	}
	side := float64(n)
	ds := engine.FromDiscrete(constructions.RandomDiscrete(rng, n, 2, side, 2.0, 1))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	// The acceptance criterion is stated at k = NumCPU, so that row is
	// always present whatever the core count.
	ks := []int{0, 1, 2, 4, 8}
	if c := runtime.NumCPU(); !slices.Contains(ks, c) {
		ks = append(ks, c)
	}
	var recs []BenchRecord
	var baseline time.Duration
	for _, k := range ks {
		var ix engine.Index
		var err error
		build := timeIt(func() {
			ix, err = engine.BuildSharded(engine.BackendBrute, ds, engine.BuildOptions{},
				engine.ShardOptions{Shards: k})
		})
		if err != nil {
			t.Note("k=%d: %v", k, err)
			continue
		}
		eng := engine.NewEngine(ix, engine.Options{})
		best := time.Duration(1<<62 - 1)
		for attempt := 0; attempt < 3; attempt++ {
			d := timeIt(func() {
				if _, e := eng.BatchNonzero(qs); e != nil && err == nil {
					err = e
				}
			})
			if d < best {
				best = d
			}
		}
		if err != nil {
			t.Note("k=%d: %v", k, err)
			continue
		}
		batchPer := best / time.Duration(len(qs))
		if k == 0 {
			baseline = batchPer
		}
		speedup := "1.00x"
		if k > 0 && batchPer > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(baseline)/float64(batchPer))
		}
		single := timePer(len(qs), func(i int) {
			if _, e := eng.QueryNonzero(qs[i]); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Note("k=%d singles: %v", k, err)
			continue
		}
		allocs := allocsPerQuery(eng, qs)
		hitRate, quantum := cacheHitRate(ix, engine.CapNonzero, side, opt.seed()+int64(k))
		recs = append(recs, BenchRecord{
			Exp:            "E17",
			Backend:        string(engine.BackendBrute),
			N:              n,
			Queries:        len(qs),
			Workers:        eng.Workers(),
			Shards:         k,
			BuildNs:        build.Nanoseconds(),
			QueryNsOp:      float64(single.Nanoseconds()),
			BatchNsOp:      float64(batchPer.Nanoseconds()),
			AllocsPerQuery: allocs,
			CacheHitRate:   hitRate,
			CacheQuantum:   quantum,
		})
		t.AddRow(itoa(n), itoa(k), dtoa(build), dtoa(single), dtoa(batchPer), speedup,
			allocsCell(allocs), ftoa(hitRate))
	}
	t.Note("shards=0 is the monolithic baseline; speedup is baseline batchQ / sharded batchQ")
	t.Note("workload: spread discrete points (local queries), so bbox pruning skips far shards")
	return recs, t
}

// E17Shard is the Table-only driver registered in All.
func E17Shard(opt Options) *Table {
	_, t := ShardBench(opt)
	return t
}

// StreamBench (E18) measures the dynamic shard layer on a streaming
// workload: a sharded brute index absorbs interleaved Insert/Delete
// (with queries running between mutations, as a serving stream would)
// and the amortized per-mutation cost is compared against the
// full-rebuild baseline — partitioning and rebuilding every shard from
// scratch, which is what each mutation would cost without the dynamic
// layer. The acceptance criterion of the dynamic-shard PR is amortized
// mutation cost ≥5× cheaper than a full rebuild at n ≥ 10k.
func StreamBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E18",
		Title:  "dynamic shard layer: streaming insert/delete vs full rebuild",
		Claim:  "incremental rebalancing amortizes ≥5× below full rebuild per mutation",
		Header: []string{"n", "shards", "muts", "mutateOp", "rebuildOp", "amortization", "queryOp"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n, muts, rebuilds := 10000, 512, 8
	if opt.Quick {
		n, muts, rebuilds = 2000, 128, 4
	}
	side := float64(n)
	const k = 16
	pool := constructions.RandomDiscrete(rng, n+(muts+1)/2, 2, side, 2.0, 1)
	live := append([]*uncertain.Discrete(nil), pool[:n]...)
	sx, err := engine.NewSharded(engine.BackendBrute, engine.BuildOptions{},
		engine.ShardOptions{Shards: k})
	if err != nil {
		t.Note("%v", err)
		return nil, t
	}
	if err := sx.Build(engine.FromDiscrete(append([]*uncertain.Discrete(nil), live...))); err != nil {
		t.Note("%v", err)
		return nil, t
	}
	eng := engine.NewEngine(sx, engine.Options{})
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}

	var mutTotal, queryTotal time.Duration
	next := n
	var mutErr error
	for m := 0; m < muts && mutErr == nil; m++ {
		if m%2 == 0 {
			p := pool[next]
			next++
			mutTotal += timeIt(func() { _, mutErr = eng.Insert(engine.Item{Point: p}) })
			live = append(live, p)
		} else {
			di := rng.Intn(len(live))
			mutTotal += timeIt(func() { mutErr = eng.Delete(di) })
			live = append(live[:di], live[di+1:]...)
		}
		q := qs[m%len(qs)]
		queryTotal += timeIt(func() {
			if _, e := eng.QueryNonzero(q); e != nil && mutErr == nil {
				mutErr = e
			}
		})
	}
	if mutErr != nil {
		t.Note("stream: %v", mutErr)
		return nil, t
	}
	mutatePer := mutTotal / time.Duration(muts)

	// Baseline: a full sharded rebuild over the current survivors,
	// sampled a few times (it is the expensive side).
	var rebuildTotal time.Duration
	for s := 0; s < rebuilds && mutErr == nil; s++ {
		ds := engine.FromDiscrete(append([]*uncertain.Discrete(nil), live...))
		rebuildTotal += timeIt(func() {
			_, mutErr = engine.BuildSharded(engine.BackendBrute, ds, engine.BuildOptions{},
				engine.ShardOptions{Shards: k})
		})
	}
	if mutErr != nil {
		t.Note("rebuild baseline: %v", mutErr)
		return nil, t
	}
	rebuildPer := rebuildTotal / time.Duration(rebuilds)
	amort := float64(rebuildPer) / float64(mutatePer)
	queryPer := queryTotal / time.Duration(muts)

	rec := BenchRecord{
		Exp:            "E18",
		AllocsPerQuery: -1,
		Backend:        string(engine.BackendBrute),
		N:              n,
		Queries:        muts,
		Workers:        eng.Workers(),
		Shards:         k,
		MutateNsOp:     float64(mutatePer.Nanoseconds()),
		RebuildNsOp:    float64(rebuildPer.Nanoseconds()),
		QueryNsOp:      float64(queryPer.Nanoseconds()),
	}
	t.AddRow(itoa(n), fmt.Sprintf("%d→%d", k, sx.Shards()), itoa(muts), dtoa(mutatePer),
		dtoa(rebuildPer), fmt.Sprintf("%.1fx", amort), dtoa(queryPer))
	t.Note("mutateOp amortizes routing + owning-shard rebuild + split/merge rebalancing")
	t.Note("rebuildOp re-partitions and rebuilds all shards — the no-dynamic-layer cost per mutation")
	t.Note("shards column is configured→final: splits track the grown dataset")
	return []BenchRecord{rec}, t
}

// E18Stream is the Table-only driver registered in All.
func E18Stream(opt Options) *Table {
	_, t := StreamBench(opt)
	return t
}

// E16Engine is the Table-only driver registered in All.
func E16Engine(opt Options) *Table {
	_, t := EngineBench(opt)
	return t
}

// MutationBench (E20) measures the mutation-batching layer on two
// workloads at n = 10k behind a 16-shard brute fleet:
//
//   - Burst coalescing: rounds of 64-mutation bursts with spatial
//     locality (the motivating scenario — a convoy of inserts plus a few
//     deletes landing in one region) applied through BatchMutate on one
//     index and as 64 single mutations on an identical twin. The
//     epoch-coalesced path rebuilds each touched shard once per burst
//     where the per-item path pays one rebuild per mutation, so the
//     acceptance bar is batched ≥ 5× cheaper per mutation.
//   - Insert buffering: a pure-insert stream against a
//     WithInsertBuffer fleet. The buffer absorbs inserts without any
//     main-shard rebuild until the cost-model flush threshold F, so a
//     threshold's worth of inserts must amortize below ONE owning-shard
//     rebuild (the per-item path's cost for the same stream is F
//     rebuilds). buffer_hit_rate records 1 − flushes/inserts.
func MutationBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E20",
		Title:  "mutation batching: coalesced bursts and the insert buffer",
		Claim:  "BatchMutate ≥5× cheaper per mutation than singles; buffered inserts amortize below one shard rebuild per flush",
		Header: []string{"mode", "n", "muts", "batchedOp", "singleOp", "speedup", "bufferHit"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n, rounds, burst := 10000, 6, 64
	if opt.Quick {
		n, rounds = 2000, 3
	}
	side := float64(n)
	const k = 16
	pool := constructions.RandomDiscrete(rng, n+rounds*burst, 2, side, 2.0, 1)
	build := func(sopt engine.ShardOptions) (*engine.ShardedIndex, error) {
		sx, err := engine.NewSharded(engine.BackendBrute, engine.BuildOptions{}, sopt)
		if err != nil {
			return nil, err
		}
		if err := sx.Build(engine.FromDiscrete(append([]*uncertain.Discrete(nil), pool[:n]...))); err != nil {
			return nil, err
		}
		return sx, nil
	}

	// --- burst coalescing: BatchMutate vs an identical twin fed singles.
	batched, err := build(engine.ShardOptions{Shards: k})
	var single *engine.ShardedIndex
	if err == nil {
		single, err = build(engine.ShardOptions{Shards: k})
	}
	if err != nil {
		t.Note("%v", err)
		return nil, t
	}
	var batchTotal, singleTotal time.Duration
	next := n
	for r := 0; r < rounds && err == nil; r++ {
		// A spatially local burst: inserts drawn around one hotspot (so
		// one or two shards own the whole run), deletes of random items.
		hot := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		live := batched.Len()
		ms := make([]engine.Mutation, burst)
		for j := range ms {
			if j%8 == 7 {
				ms[j] = engine.DeleteMutation(rng.Intn(live))
				live--
			} else {
				p := pool[next]
				next++
				p = relocate(p, hot, rng)
				ms[j] = engine.InsertMutation(engine.Item{Point: p})
				live++
			}
		}
		batchTotal += timeIt(func() { _, err = batched.BatchMutate(ms) })
		if err != nil {
			break
		}
		singleTotal += timeIt(func() {
			for _, m := range ms {
				if m.Op == engine.OpInsert {
					_, err = single.Insert(m.Item)
				} else {
					_, err = single.Delete(m.Del)
				}
				if err != nil {
					return
				}
			}
		})
	}
	if err != nil {
		t.Note("burst sweep: %v", err)
		return nil, t
	}
	muts := rounds * burst
	batchPer := batchTotal / time.Duration(muts)
	singlePer := singleTotal / time.Duration(muts)
	recs := []BenchRecord{{
		Exp:            "E20",
		AllocsPerQuery: -1,
		Backend:        string(engine.BackendBrute),
		N:              n,
		Queries:        muts,
		Shards:         k,
		BatchNsOp:      float64(batchPer.Nanoseconds()),
		MutateNsOp:     float64(singlePer.Nanoseconds()),
	}}
	t.AddRow("burst64", itoa(n), itoa(muts), dtoa(batchPer), dtoa(singlePer),
		fmt.Sprintf("%.1fx", float64(singlePer)/float64(batchPer)), "-")

	// --- insert buffering: a pure-insert stream with the same arrival
	// locality as the bursts (a hotspot that moves every `burst`
	// arrivals), fed identically to the buffered fleet and the per-item
	// baseline.
	stream := muts
	streamPts := make([]*uncertain.Discrete, stream)
	var hot geom.Point
	for i := range streamPts {
		if i%burst == 0 {
			hot = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		streamPts[i] = relocate(pool[n+i%(rounds*burst)], hot, rng)
	}
	buffered, err := build(engine.ShardOptions{Shards: k, InsertBuffer: true})
	if err != nil {
		t.Note("buffer sweep: %v", err)
		return recs, t
	}
	var insTotal time.Duration
	for i := 0; i < stream && err == nil; i++ {
		p := streamPts[i]
		insTotal += timeIt(func() { _, err = buffered.Insert(engine.Item{Point: p}) })
	}
	if err != nil {
		t.Note("buffer sweep: %v", err)
		return recs, t
	}
	insertPer := insTotal / time.Duration(stream)
	_, inserts, flushes := buffered.BufferStats()
	hit := 0.0
	if inserts > 0 {
		hit = 1 - float64(flushes)/float64(inserts)
	}
	// The no-buffer baseline for the same stream: one owning-shard
	// rebuild per insert (the per-item dynamic path).
	base, err := build(engine.ShardOptions{Shards: k})
	if err != nil {
		t.Note("buffer baseline: %v", err)
		return recs, t
	}
	var basePer time.Duration
	{
		var baseTotal time.Duration
		for i := 0; i < stream && err == nil; i++ {
			p := streamPts[i]
			baseTotal += timeIt(func() { _, err = base.Insert(engine.Item{Point: p}) })
		}
		if err != nil {
			t.Note("buffer baseline: %v", err)
			return recs, t
		}
		basePer = baseTotal / time.Duration(stream)
	}
	recs = append(recs, BenchRecord{
		Exp:            "E20",
		AllocsPerQuery: -1,
		Backend:        string(engine.BackendBrute) + "+buffer",
		N:              n,
		Queries:        stream,
		Shards:         k,
		MutateNsOp:     float64(insertPer.Nanoseconds()),
		RebuildNsOp:    float64(basePer.Nanoseconds()),
		BufferHitRate:  hit,
	})
	t.AddRow("insert-buffer", itoa(n), itoa(stream), dtoa(insertPer), dtoa(basePer),
		fmt.Sprintf("%.1fx", float64(basePer)/float64(insertPer)), ftoa(hit))
	t.Note("burst64: 64 spatially-local mutations per round, BatchMutate vs the same ops applied singly on a twin index")
	t.Note("insert-buffer: pure-insert stream; batchedOp is the amortized buffered insert, singleOp the per-item rebuild path")
	t.Note("bufferHit is the fraction of inserts absorbed without a main-shard rebuild (1 − flushes/inserts)")
	return recs, t
}

// relocate clones discrete point p translated so its centroid lands
// near hot — the E20 burst generator's spatial locality.
func relocate(p *uncertain.Discrete, hot geom.Point, rng *rand.Rand) *uncertain.Discrete {
	c := p.Support().Center()
	dx := hot.X - c.X + rng.NormFloat64()*2
	dy := hot.Y - c.Y + rng.NormFloat64()*2
	locs := make([]geom.Point, len(p.Locs))
	for i, l := range p.Locs {
		locs[i] = geom.Pt(l.X+dx, l.Y+dy)
	}
	out, err := uncertain.NewDiscrete(locs, append([]float64(nil), p.W...))
	if err != nil {
		return p
	}
	return out
}

// E20Mutation is the Table-only driver registered in All.
func E20Mutation(opt Options) *Table {
	_, t := MutationBench(opt)
	return t
}

// PlannerBench (E19) measures the cost-based query planner against the
// rule-based auto router on a mixed workload: one discrete dataset,
// queries cycling NN≠0 → π → E[d]. The rule-based choice serves all
// three kinds from the brute reference (O(n) NN≠0 and E[d], Õ(n²) π);
// the planner assigns each kind its cheapest calibrated backend
// (two-stage / spiral / expected on this workload). The acceptance
// criterion of the planner PR is ≥1.2× mixed-workload throughput over
// the rule-based auto.
func PlannerBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E19",
		Title:  "cost-based planner vs rule-based auto (mixed workload)",
		Claim:  "per-kind cost-based assignment ≥1.2× the rule-based auto's throughput",
		Header: []string{"router", "n", "build", "mixedQ", "speedup", "plan"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n := 2000
	if opt.Quick {
		n = 600
	}
	side := 10 * float64(n)
	ds := engine.FromDiscrete(constructions.RandomDiscrete(rng, n, 3, side, 2.0, 1))
	qs := make([]geom.Point, 192)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	// The mixed loop: query i runs the kind i mod 3, so both routers see
	// an identical interleaving of all three semantics.
	mixed := func(eng *engine.Engine) error {
		for i, q := range qs {
			var err error
			switch i % 3 {
			case 0:
				_, err = eng.QueryNonzero(q)
			case 1:
				_, err = eng.QueryProbs(q, 0)
			default:
				_, _, err = eng.QueryExpected(q)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	var recs []BenchRecord
	var autoPer time.Duration
	for _, router := range []string{"auto", "planner"} {
		var (
			ix   engine.Index
			plan *engine.Plan
			err  error
		)
		build := timeIt(func() {
			if router == "auto" {
				ix, err = engine.BuildAuto(ds, engine.BuildOptions{}, engine.ShardOptions{})
			} else {
				ix, plan, err = engine.BuildPlanned(ds, engine.BuildOptions{},
					engine.ShardOptions{}, engine.PlannerOptions{})
			}
		})
		if err != nil {
			t.Note("%s: %v", router, err)
			continue
		}
		eng := engine.NewEngine(ix, engine.Options{})
		best := time.Duration(1<<62 - 1)
		for attempt := 0; attempt < 2; attempt++ {
			d := timeIt(func() {
				if e := mixed(eng); e != nil && err == nil {
					err = e
				}
			})
			if d < best {
				best = d
			}
		}
		if err != nil {
			t.Note("%s: %v", router, err)
			continue
		}
		per := best / time.Duration(len(qs))
		if router == "auto" {
			autoPer = per
		}
		speedup := "1.00x"
		if router == "planner" && per > 0 && autoPer > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(autoPer)/float64(per))
		}
		planStr := ""
		if plan != nil {
			planStr = planSummary(plan)
		}
		recs = append(recs, BenchRecord{
			Exp:            "E19",
			AllocsPerQuery: -1,
			Backend:        router,
			N:              n,
			Queries:        len(qs),
			Workers:        eng.Workers(),
			BuildNs:        build.Nanoseconds(),
			QueryNsOp:      float64(per.Nanoseconds()),
			Plan:           planStr,
		})
		t.AddRow(router, itoa(n), dtoa(build), dtoa(per), speedup, planStr)
	}
	t.Note("mixedQ is per-query cost over an interleaved NN≠0 / π / E[d] stream (single-query path)")
	t.Note("auto = rule-based (brute serves everything on discrete data); planner = cost-based per-kind assignment")
	return recs, t
}

// planSummary compacts a plan to its per-kind backend choices.
func planSummary(p *engine.Plan) string {
	var parts []string
	for _, kind := range []engine.Capability{engine.CapNonzero, engine.CapProbs, engine.CapExpected, engine.CapTopK} {
		if ch, ok := p.Choices[kind]; ok {
			parts = append(parts, fmt.Sprintf("%s=%s", kind, ch.Backend))
		}
	}
	return strings.Join(parts, ",")
}

// E19Planner is the Table-only driver registered in All.
func E19Planner(opt Options) *Table {
	_, t := PlannerBench(opt)
	return t
}

// TopKBench (E22) measures the registry-added top-k query kind across
// the execution layers: the monolithic brute reference, the exact
// cross-shard merge, and the planned composite. Top-k is one π sweep
// plus an O(n log k) selection, so its per-query cost must track the π
// query at the same configuration — each configuration emits one
// "<config>-probs" baseline row and one "<config>-topk<k>" row per k,
// and cmd/benchdiff enforces the ratio as an intra-run invariant. The π
// and top-k passes alternate within each of three rounds and each keeps
// its best, so a ratio never divides timings from two throttle windows.
func TopKBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E22",
		Title:  "top-k most-likely NN through the query-kind registry",
		Claim:  "top-k = one π sweep + O(n log k) selection: per-query cost tracks the π query per configuration",
		Header: []string{"config", "n", "shards", "k", "πQ", "topkQ", "ratio"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n := 2000
	if opt.Quick {
		n = 600
	}
	side := 10 * float64(n)
	ds := engine.FromDiscrete(constructions.RandomDiscrete(rng, n, 3, side, 2.0, 1))
	qs := make([]geom.Point, 128)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}

	configs := []struct {
		name   string
		shards int
		build  func() (engine.Index, error)
	}{
		{"brute", 0, func() (engine.Index, error) {
			return engine.Build(engine.BackendBrute, ds, engine.BuildOptions{})
		}},
		{"sharded", 4, func() (engine.Index, error) {
			return engine.BuildSharded(engine.BackendBrute, ds, engine.BuildOptions{}, engine.ShardOptions{Shards: 4})
		}},
		{"planned", 0, func() (engine.Index, error) {
			ix, _, err := engine.BuildPlanned(ds, engine.BuildOptions{}, engine.ShardOptions{},
				engine.PlannerOptions{Mix: engine.Workload{Nonzero: 1, Probs: 1, Expected: 1, TopK: 1}})
			return ix, err
		}},
	}
	var recs []BenchRecord
	for _, cfg := range configs {
		var (
			ix  engine.Index
			err error
		)
		build := timeIt(func() { ix, err = cfg.build() })
		if err != nil {
			t.Note("%s: %v", cfg.name, err)
			continue
		}
		eng := engine.NewEngine(ix, engine.Options{})
		// One π pass and one pass per top-k size each round, A/B
		// interleaved best-of-3, so every ratio compares passes from the
		// same throttle window; the GC fence keeps the build's garbage
		// out of the first round.
		runtime.GC()
		ks := []int{1, 10}
		best := make([]time.Duration, 1+len(ks)) // [π, top-ks[0], top-ks[1], …]
		for i := range best {
			best[i] = 1<<62 - 1
		}
		for attempt := 0; attempt < 3; attempt++ {
			best[0] = min(best[0], timePer(len(qs), func(i int) {
				if _, e := eng.QueryProbs(qs[i], 0); e != nil && err == nil {
					err = e
				}
			}))
			for ki, k := range ks {
				best[1+ki] = min(best[1+ki], timePer(len(qs), func(i int) {
					if _, e := eng.QueryTopK(qs[i], k, 0); e != nil && err == nil {
						err = e
					}
				}))
			}
		}
		if err != nil {
			t.Note("%s: %v", cfg.name, err)
			continue
		}
		probsPer := best[0]
		recs = append(recs, BenchRecord{
			Exp:            "E22",
			AllocsPerQuery: -1,
			Backend:        cfg.name + "-probs",
			N:              n,
			Queries:        len(qs),
			Workers:        eng.Workers(),
			Shards:         cfg.shards,
			BuildNs:        build.Nanoseconds(),
			QueryNsOp:      float64(probsPer.Nanoseconds()),
		})
		for ki, k := range ks {
			topkPer := best[1+ki]
			ratio := "n/a"
			if probsPer > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(topkPer)/float64(probsPer))
			}
			recs = append(recs, BenchRecord{
				Exp:            "E22",
				AllocsPerQuery: -1,
				Backend:        fmt.Sprintf("%s-topk%d", cfg.name, k),
				N:              n,
				Queries:        len(qs),
				Workers:        eng.Workers(),
				Shards:         cfg.shards,
				QueryNsOp:      float64(topkPer.Nanoseconds()),
			})
			t.AddRow(cfg.name, itoa(n), itoa(cfg.shards), itoa(k), dtoa(probsPer), dtoa(topkPer), ratio)
		}
	}
	t.Note("every row's top-k answer set is the ranked prefix of the same configuration's π sweep")
	t.Note("rows pair as <config>-probs vs <config>-topk<k> in BENCH_engine.json; benchdiff bounds the ratio")
	t.Note("π and top-k passes of 128 queries A/B interleaved best-of-3 per configuration, cache off")
	return recs, t
}

// E22TopK is the Table-only driver registered in All.
func E22TopK(opt Options) *Table {
	_, t := TopKBench(opt)
	return t
}

// BatchDedupBench (E23) measures the batch executor against a plain
// per-query QueryNonzero loop on one shared sharded index. Two
// workloads per the bench/history methodology: "hot" draws 2048 queries
// from 256 distinct points — the service-skew case where in-batch dedup
// (singleflight) computes each distinct query once — and "uniq" uses
// 2048 distinct queries, the no-sharing bound where the batch can only
// match the loop. Both sides run one worker with the cache off, so the
// ratio isolates dedup. Timings are A/B interleaved (loop and batch
// alternate within each attempt, best of 3) so the pairs share thermal
// and GC conditions. cmd/benchdiff bounds the hot pair at ≥1.5× with
// bit-identical answers; BatchNonzeroInto must stay at 0 allocs/op
// steady state.
func BatchDedupBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E23",
		Title:  "batch executor: in-batch dedup over the single-query path",
		Claim:  "in-batch dedup: hot-skew batches ≥1.5× a per-query loop, bit-identical answers",
		Header: []string{"workload", "n", "loopQ", "dedupQ", "speedup", "computed", "allocs", "parity"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n := 100_000
	if opt.Quick {
		n = 10_000
	}
	const (
		shards = 8
		nq     = 2048
		nHot   = 256
	)
	side := float64(n)
	ds := engine.FromDiscrete(constructions.RandomDiscrete(rng, n, 2, side, 2.0, 1))
	var ix engine.Index
	var err error
	build := timeIt(func() {
		ix, err = engine.BuildSharded(engine.BackendBrute, ds, engine.BuildOptions{},
			engine.ShardOptions{Shards: shards})
	})
	if err != nil {
		t.Note("build: %v", err)
		return nil, t
	}

	hotPts := make([]geom.Point, nHot)
	for i := range hotPts {
		hotPts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	hot := make([]geom.Point, nq)
	for i := range hot {
		hot[i] = hotPts[rng.Intn(nHot)]
	}
	uniq := make([]geom.Point, nq)
	for i := range uniq {
		uniq[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}

	// Same index, one worker, no cache: the loop answers every query,
	// the batch only its distinct ones.
	eng := engine.NewEngine(ix, engine.Options{Workers: 1})
	loop := func(qs []geom.Point) ([][]int, error) {
		out := make([][]int, len(qs))
		for i, q := range qs {
			ids, err := eng.QueryNonzero(q)
			if err != nil {
				return nil, err
			}
			out[i] = ids
		}
		return out, nil
	}
	workloads := []struct {
		name string
		qs   []geom.Point
	}{{"hot", hot}, {"uniq", uniq}}

	var best [2][2]time.Duration // [workload][loop|dedup]
	var computed [2]uint64       // [workload] unique misses per batch
	for wi := range best {
		best[wi][0], best[wi][1] = 1<<62-1, 1<<62-1
	}
	for attempt := 0; attempt < 3; attempt++ {
		for wi, wl := range workloads {
			d := timeIt(func() {
				if _, e := loop(wl.qs); e != nil && err == nil {
					err = e
				}
			})
			best[wi][0] = min(best[wi][0], d)
			before := eng.Stats().TileLanes
			d = timeIt(func() {
				if _, e := eng.BatchNonzero(wl.qs); e != nil && err == nil {
					err = e
				}
			})
			best[wi][1] = min(best[wi][1], d)
			computed[wi] = eng.Stats().TileLanes - before
		}
	}
	if err != nil {
		t.Note("batch: %v", err)
		return nil, t
	}

	// Parity: the batch must be bit-identical to the query loop on the
	// headline workload.
	wantRes, err1 := loop(hot)
	gotRes, err2 := eng.BatchNonzero(hot)
	parity := "mismatch"
	if err1 == nil && err2 == nil {
		parity = fmt.Sprintf("ok:%08x", batchFingerprint(wantRes))
		for i := range wantRes {
			if !slices.Equal(wantRes[i], gotRes[i]) {
				parity = fmt.Sprintf("mismatch@%d", i)
				break
			}
		}
	}

	// Steady-state allocations per query through the reuse entry point,
	// on a fresh single-worker engine (the zero-alloc contract is stated
	// for the sequential path).
	allocs := allocsPerBatchQuery(engine.NewEngine(ix, engine.Options{Workers: 1}), hot)

	st := eng.Stats()
	var recs []BenchRecord
	for wi, wl := range workloads {
		loopPer := best[wi][0] / time.Duration(nq)
		dedupPer := best[wi][1] / time.Duration(nq)
		speedup := "n/a"
		if dedupPer > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(loopPer)/float64(dedupPer))
		}
		rowParity := ""
		if wl.name == "hot" {
			rowParity = parity
		}
		recs = append(recs,
			BenchRecord{
				Exp:            "E23",
				Backend:        fmt.Sprintf("sharded%d-%s-loop", shards, wl.name),
				N:              n,
				Queries:        nq,
				Workers:        eng.Workers(),
				Shards:         shards,
				BuildNs:        build.Nanoseconds(),
				BatchNsOp:      float64(loopPer.Nanoseconds()),
				AllocsPerQuery: -1,
			},
			BenchRecord{
				Exp:            "E23",
				Backend:        fmt.Sprintf("sharded%d-%s-dedup", shards, wl.name),
				N:              n,
				Queries:        nq,
				Workers:        eng.Workers(),
				Shards:         shards,
				BuildNs:        build.Nanoseconds(),
				BatchNsOp:      float64(dedupPer.Nanoseconds()),
				AllocsPerQuery: allocs,
				Parity:         rowParity,
				Batches:        st.Batches,
				MeanBatchSize:  st.MeanBatchSize(),
			})
		t.AddRow(wl.name, itoa(n), dtoa(loopPer), dtoa(dedupPer), speedup,
			fmt.Sprint(computed[wi]), allocsCell(allocs), rowParity)
	}
	t.Note("hot: %d queries drawn from %d distinct points (service skew) — in-batch dedup computes each once", nq, nHot)
	t.Note("uniq: %d distinct queries — the no-sharing bound, where the batch can only match the loop", nq)
	t.Note("A/B interleaved best-of-3 on one shared sharded index, one worker, cache off; computed = unique misses per batch")
	return recs, t
}

// batchFingerprint folds a batch's NN≠0 answers into one FNV-1a hash —
// the E23 parity fingerprint recorded in BENCH_engine.json.
func batchFingerprint(res [][]int) uint32 {
	h := fnv.New32a()
	var b [8]byte
	for _, ids := range res {
		binary.LittleEndian.PutUint64(b[:], uint64(len(ids)))
		h.Write(b[:])
		for _, id := range ids {
			binary.LittleEndian.PutUint64(b[:], uint64(id))
			h.Write(b[:])
		}
	}
	return h.Sum32()
}

// allocsPerBatchQuery measures steady-state heap allocations per query
// through the batch reuse entry point (BatchNonzeroInto with a recycled
// destination), the batch analogue of allocsPerQuery: warm up to the
// pools' high-water marks, GC to empty them, then charge the refill
// amortized over the measured rounds.
func allocsPerBatchQuery(eng *engine.Engine, qs []geom.Point) float64 {
	const rounds = 4
	var dst [][]int
	var err error
	for warm := 0; warm < 2; warm++ {
		if dst, err = eng.BatchNonzeroInto(qs, dst); err != nil {
			return -1
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < rounds; r++ {
		dst, _ = eng.BatchNonzeroInto(qs, dst)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(rounds*len(qs))
}

// E23BatchDedup is the Table-only driver registered in All.
func E23BatchDedup(opt Options) *Table {
	_, t := BatchDedupBench(opt)
	return t
}

// AdaptiveBench (E24) measures the adaptive replanning loop under
// workload drift. Two planner-built sharded engines open on the same
// dataset with the same π-heavy plan; a π-heavy warmup stream runs
// through the adaptive one, then the stream flips E[d]-heavy. The
// adaptive engine's loop detects the mix shift and replans every shard
// for the observed traffic (the drifted mix makes the planner buy the
// expected-distance tree the original plan skipped); the frozen engine
// keeps serving E[d] off the plan it was born with. The post-drift
// query list then runs through both, A/B interleaved best-of-3. The
// acceptance bar of the adaptive-replanning PR is adaptive ≥1.3× frozen
// post-drift (cmd/benchdiff enforces it) with answers still exact: the
// parity fingerprint hashes the adaptive engine's NN≠0 answers against
// a monolithic brute oracle, and π/E[d] must sit within 1e-12 of it.
func AdaptiveBench(opt Options) ([]BenchRecord, *Table) {
	t := &Table{
		ID:     "E24",
		Title:  "adaptive replanning under workload drift",
		Claim:  "mid-stream mix flip: drift-detected per-shard replan serves the new mix ≥1.3× the frozen plan",
		Header: []string{"engine", "n", "shards", "postQ", "speedup", "replans", "reason", "parity"},
	}
	rng := rand.New(rand.NewSource(opt.seed()))
	n := 10_000
	if opt.Quick {
		n = 4_000
	}
	// 4 shards keeps per-shard instances large (1000–2500 points):
	// below ~500 points the flat brute scan beats the E[d] tree's
	// per-shard walk constant and a correct replan buys nothing.
	const (
		shards = 4
		window = 256
		nq     = 2048
	)
	side := float64(n)
	ds := engine.FromDiscrete(constructions.RandomDiscrete(rng, n, 2, side, 2.0, 1))
	preMix := engine.Workload{Probs: 1, Nonzero: 0.25, Expected: 0.01}
	popt := engine.PlannerOptions{Mix: preMix}

	// Two independent builds of the same plan: the replan swaps shard
	// backends in place, so the frozen control needs its own fleet.
	var ixA, ixF engine.Index
	var err error
	build := timeIt(func() {
		ixA, _, err = engine.BuildPlanned(ds, engine.BuildOptions{}, engine.ShardOptions{Shards: shards}, popt)
	})
	if err == nil {
		ixF, _, err = engine.BuildPlanned(ds, engine.BuildOptions{}, engine.ShardOptions{Shards: shards}, popt)
	}
	if err != nil {
		t.Note("build: %v", err)
		return nil, t
	}
	adaptive := engine.NewEngine(ixA, engine.Options{
		AdaptiveReplan: &engine.AdaptiveOptions{Window: window, Cooldown: 1}})
	frozen := engine.NewEngine(ixF, engine.Options{})

	pt := func() geom.Point { return geom.Pt(rng.Float64()*side, rng.Float64()*side) }

	// Phase A: traffic matching the plan warms the profile without
	// firing (80% π / 20% NN≠0 ≈ the plan's normalized mix).
	for i := 0; i < 3*window; i++ {
		if i%5 == 4 {
			_, err = adaptive.QueryNonzero(pt())
		} else {
			_, err = adaptive.QueryProbs(pt(), 1e-3)
		}
		if err != nil {
			t.Note("warmup: %v", err)
			return nil, t
		}
	}

	// Phase B: the stream flips E[d]-heavy; keep serving until the loop
	// notices and swaps (bounded, so a broken detector fails loudly
	// instead of spinning).
	drift := func() geom.Point { return geom.Pt(rng.Float64()*side, rng.Float64()*side) }
	for w := 0; w < 64 && adaptive.Stats().Replans == 0; w++ {
		for i := 0; i < window; i++ {
			if i%10 == 9 {
				_, err = adaptive.QueryNonzero(drift())
			} else {
				_, _, err = adaptive.QueryExpected(drift())
			}
			if err != nil {
				t.Note("drift stream: %v", err)
				return nil, t
			}
		}
	}
	st := adaptive.Stats()
	if st.Replans == 0 {
		t.Note("adaptive loop never replanned under the flipped mix")
	}

	// Post-drift measurement: one fixed E[d]-heavy list through both
	// engines, interleaved best-of-3. The GC fence isolates the timing
	// from garbage earlier sweeps left behind — background marking
	// penalizes the replanned tree's pointer walks far more than the
	// frozen plan's linear scans, which would understate the win.
	runtime.GC()
	qs := make([]geom.Point, nq)
	for i := range qs {
		qs[i] = pt()
	}
	engines := []*engine.Engine{frozen, adaptive}
	var best [2]time.Duration
	best[0], best[1] = 1<<62-1, 1<<62-1
	serve := func(e *engine.Engine) {
		for i, q := range qs {
			if i%10 == 9 {
				_, e2 := e.QueryNonzero(q)
				if e2 != nil && err == nil {
					err = e2
				}
			} else {
				_, _, e2 := e.QueryExpected(q)
				if e2 != nil && err == nil {
					err = e2
				}
			}
		}
	}
	for attempt := 0; attempt < 3; attempt++ {
		for ei, e := range engines {
			if d := timeIt(func() { serve(e) }); d < best[ei] {
				best[ei] = d
			}
		}
	}
	if err != nil {
		t.Note("post-drift: %v", err)
		return nil, t
	}

	// Parity: the swapped fleet against a fresh monolithic brute oracle —
	// NN≠0 hashed bit-identically, π and E[d] within 1e-12.
	parity := adaptiveParity(adaptive, ds, rng, side)

	frozenPer := best[0] / time.Duration(nq)
	adaptPer := best[1] / time.Duration(nq)
	speedup := "n/a"
	if adaptPer > 0 {
		speedup = fmt.Sprintf("%.2fx", float64(frozenPer)/float64(adaptPer))
	}
	recs := []BenchRecord{
		{
			Exp:            "E24",
			Backend:        fmt.Sprintf("sharded%d-frozen", shards),
			N:              n,
			Queries:        nq,
			Workers:        frozen.Workers(),
			Shards:         shards,
			BuildNs:        build.Nanoseconds(),
			QueryNsOp:      float64(frozenPer.Nanoseconds()),
			AllocsPerQuery: -1,
		},
		{
			Exp:            "E24",
			Backend:        fmt.Sprintf("sharded%d-adaptive", shards),
			N:              n,
			Queries:        nq,
			Workers:        adaptive.Workers(),
			Shards:         shards,
			BuildNs:        build.Nanoseconds(),
			QueryNsOp:      float64(adaptPer.Nanoseconds()),
			AllocsPerQuery: adaptiveObserveAllocs(ixF),
			Parity:         parity,
			Replans:        st.Replans,
			ReplanReason:   st.LastReplanReason,
		},
	}
	t.AddRow("frozen", itoa(n), itoa(shards), dtoa(frozenPer), "1.00x", "0", "", "")
	t.AddRow("adaptive", itoa(n), itoa(shards), dtoa(adaptPer), speedup,
		fmt.Sprintf("%d", st.Replans), st.LastReplanReason, parity)
	t.Note("plan built for π-heavy traffic (%.0f%% π); stream flips to ~90%% E[d] mid-run", 100*preMix.Probs/(preMix.Probs+preMix.Nonzero+preMix.Expected))
	t.Note("post-drift list: %d queries (90%% E[d] / 10%% NN≠0), A/B interleaved best-of-3", nq)
	t.Note("parity: adaptive answers vs monolithic brute oracle — NN≠0 hashed, π and E[d] within 1e-12")
	return recs, t
}

// adaptiveObserveAllocs measures the observation path's allocation
// contract: steady-state allocs per NN≠0 query with the adaptive loop
// windowing every query into its EWMA profiles. Drift thresholds sit
// at the ceiling so a replan — which allocates, off the query path —
// cannot fire mid-measurement: the recorded figure is the pure
// observe-path overhead (the E24 bar is 0; the measured adaptive
// engine itself would re-drift under the probe's pure-NN≠0 traffic
// and fold replan allocations into the number).
func adaptiveObserveAllocs(ix engine.Index) float64 {
	e := engine.NewEngine(ix, engine.Options{Workers: 1, AdaptiveReplan: &engine.AdaptiveOptions{
		Window: 256,
		Drift:  engine.DriftThresholds{ErrFactor: 1e9, MixDelta: 1},
	}})
	rng := rand.New(rand.NewSource(0xa110c))
	qs := make([]geom.Point, 256)
	for i := range qs {
		qs[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return allocsPerQuery(e, qs)
}

// adaptiveParity fingerprints the swapped adaptive fleet against a
// monolithic brute oracle: "ok:<fnv32a over NN≠0 answers>" when every
// probe matches (NN≠0 bit-identical, π and E[d] within 1e-12), the
// mismatch kind otherwise.
func adaptiveParity(adaptive *engine.Engine, ds *engine.Dataset, rng *rand.Rand, side float64) string {
	oracleIx, err := engine.Build(engine.BackendBrute, ds, engine.BuildOptions{})
	if err != nil {
		return "oracle: " + err.Error()
	}
	oracle := engine.NewEngine(oracleIx, engine.Options{})
	const probes = 64
	const tol = 1e-12
	res := make([][]int, 0, probes)
	for i := 0; i < probes; i++ {
		q := geom.Pt(rng.Float64()*side, rng.Float64()*side)
		nzA, err1 := adaptive.QueryNonzero(q)
		nzO, err2 := oracle.QueryNonzero(q)
		if err1 != nil || err2 != nil || !slices.Equal(nzA, nzO) {
			return fmt.Sprintf("nonzero-mismatch@%d", i)
		}
		res = append(res, nzA)
		// π compares as a set within tol: the sharded merge and the
		// oracle may disagree on entries whose probability is float
		// noise (≈1e-16 tails one side rounds to exactly zero and
		// drops), and those are inside the 1e-12 contract.
		psA, err1 := adaptive.QueryProbs(q, 0)
		psO, err2 := oracle.QueryProbs(q, 0)
		if err1 != nil || err2 != nil {
			return fmt.Sprintf("probs-mismatch@%d", i)
		}
		pa := make(map[int]float64, len(psA))
		for _, p := range psA {
			pa[p.I] = p.P
		}
		for _, p := range psO {
			if math.Abs(pa[p.I]-p.P) > tol {
				return fmt.Sprintf("probs-mismatch@%d", i)
			}
			delete(pa, p.I)
		}
		for _, p := range pa {
			if math.Abs(p) > tol {
				return fmt.Sprintf("probs-mismatch@%d", i)
			}
		}
		iA, dA, err1 := adaptive.QueryExpected(q)
		iO, dO, err2 := oracle.QueryExpected(q)
		if err1 != nil || err2 != nil || iA != iO || math.Abs(dA-dO) > tol*math.Max(1, math.Abs(dO)) {
			return fmt.Sprintf("expected-mismatch@%d", i)
		}
	}
	return fmt.Sprintf("ok:%08x", batchFingerprint(res))
}

// E24Adaptive is the Table-only driver registered in All.
func E24Adaptive(opt Options) *Table {
	_, t := AdaptiveBench(opt)
	return t
}
