package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"unn"
	"unn/internal/kernel"
)

// Layer replay sizes.
const (
	replayRoots     = 48 // traced ops whose inputs are replayed one layer down
	replayFresh     = 64 // fresh points for the dispatch and cache-hit replays
	replayQueries   = 128
	replayMutations = 8
	replayBuilds    = 3
	tileLanes       = 8
)

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink int

// replayLayers fills b.layer after the traced pass: counters the pass
// left in Stats, then replays of its inputs at each layer boundary, each
// recorded as a span.
func (b *bench) replayLayers() error {
	st := b.stats
	L := b.layer
	L["engine.cache.hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	L["engine.batch.computed_per_query"] = ratio(float64(st.TileLanes), float64(st.BatchQueries))
	L["engine.batch.tile_occupancy"] = st.TileOccupancy()
	L["engine.batch.mean_size"] = st.MeanBatchSize()
	L["engine.shard.count"] = float64(b.h.ShardCount())
	L["engine.adaptive.replans"] = float64(st.Replans)
	L["engine.adaptive.time_to_replan_s"] = b.replanAt
	L["engine.serve.admit_wait_p99_us"] = quantile(b.loadgen.admit, 0.99)
	L["loadgen.late_p99_us"] = quantile(b.loadgen.late, 0.99)
	L["trace.overhead_ratio"] = ratio(median(b.tr.rootDurations()), median(b.untraced))

	if err := b.replayInputs(); err != nil {
		return err
	}
	if err := b.replayDispatch(); err != nil {
		return err
	}
	if err := b.replayStructures(); err != nil {
		return err
	}
	if err := b.replaySnapshot(); err != nil {
		return err
	}
	if err := b.replayMutations(); err != nil {
		return err
	}
	b.replayReplan()
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianSpan is the median duration of the spans named name, in µs.
func (b *bench) medianSpan(name string) float64 { return median(b.tr.durations(name)) }

// shardVisits sums the per-shard visit counters by kind (registry slot
// order: nonzero, probs, expected, topk).
func shardVisits(st unn.Stats) (v [4]float64) {
	for _, s := range st.ShardQueries {
		for k := range v {
			v[k] += float64(s.Counts[k])
		}
	}
	return v
}

// replayInputs replays the inputs of up to replayRoots traced ops, as
// children of their root spans: every query kind straight on Index()
// (no engine dispatch, no cache), then the flat kernels over a mirror of
// the whole live dataset (no shard pruning).
func (b *bench) replayInputs() error {
	var flat *kernel.Flat
	for i := 0; i < replayBuilds; i++ {
		b.tr.time("kernel.lower", -1, func() { flat = kernel.FromDiscrete(b.pts) })
	}
	ix := b.h.Index()
	topk, hasTopK := ix.(interface {
		QueryTopK(unn.Point, int, float64) ([]unn.Prob, error)
	})
	roots := b.roots
	if len(roots) > replayRoots {
		picked := make([]root, replayRoots)
		for i := range picked {
			picked[i] = roots[i*len(roots)/replayRoots]
		}
		roots = picked
	}
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	var dst []int
	var qx, qy []float64
	dsts := make([][]int, tileLanes)
	visits0 := shardVisits(b.h.Stats())
	var err error
	keep := func(e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("replay: %w", e)
		}
	}
	for _, rt := range roots {
		q, parent := rt.q, rt.span
		b.tr.time("index.nonzero", parent, func() {
			r, e := ix.QueryNonzero(q)
			sink += len(r)
			keep(e)
		})
		b.tr.time("index.probs", parent, func() {
			r, e := ix.QueryProbs(q, 0)
			sink += len(r)
			keep(e)
		})
		b.tr.time("index.expected", parent, func() {
			i, _, e := ix.QueryExpected(q)
			sink += i
			keep(e)
		})
		if hasTopK {
			b.tr.time("index.topk", parent, func() {
				r, e := topk.QueryTopK(q, topK, 0)
				sink += len(r)
				keep(e)
			})
		}
		b.tr.time("kernel.nonzero", parent, func() { dst = flat.AppendNonzero(q.X, q.Y, dst[:0], sc) })
		b.tr.time("kernel.expected", parent, func() {
			i, _ := flat.ExpectedArgmin(q.X, q.Y)
			sink += i
		})
		b.tr.time("kernel.distcdf", parent, func() {
			g := 0.0
			for i := 0; i < flat.N; i++ {
				g += flat.DistCDF(i, q.X, q.Y, 3*sigma)
			}
			sink += int(g)
		})
		if qx, qy = append(qx, q.X), append(qy, q.Y); len(qx) == tileLanes {
			for t := range dsts {
				dsts[t] = dsts[t][:0]
			}
			b.tr.time("kernel.tile_nonzero", parent, func() { dsts = flat.AppendNonzeroTile(qx, qy, dsts, sc) })
			qx, qy = qx[:0], qy[:0]
		}
	}
	if err != nil {
		return err
	}
	visits1 := shardVisits(b.h.Stats())
	sink += len(dst)
	L, n, rows := b.layer, float64(len(roots)), float64(flat.N)
	for k, name := range []string{"nonzero", "probs", "expected"} {
		L["engine.shard.visits_per_query."+name] = ratio(visits1[k]-visits0[k], n)
	}
	for _, name := range []string{"nonzero", "probs", "expected", "topk"} {
		L["engine.shard.index_us."+name] = b.medianSpan("index." + name)
	}
	L["kernel.lower_ms"] = b.medianSpan("kernel.lower") / 1e3
	L["kernel.nonzero_ns_per_row"] = ratio(b.medianSpan("kernel.nonzero")*1e3, rows)
	L["kernel.expected_ns_per_row"] = ratio(b.medianSpan("kernel.expected")*1e3, rows)
	L["kernel.distcdf_ns"] = ratio(b.medianSpan("kernel.distcdf")*1e3, rows)
	L["kernel.tile_nonzero_ns_per_lane_row"] = ratio(b.medianSpan("kernel.tile_nonzero")*1e3, tileLanes*rows)
	return nil
}

// replayDispatch times Handle.QueryNonzero against Index().QueryNonzero
// at fresh points (a cache miss through the engine, then the index
// alone), then the same Handle query again (a cache hit). The engine's
// self time is the parent median minus the child median.
func (b *bench) replayDispatch() error {
	r := b.rng(streamReplay + 1)
	ix := b.h.Index()
	for i := 0; i < replayFresh; i++ {
		q := b.uniform(r)
		var e1, e2, e3 error
		t0 := time.Now()
		_, e1 = b.h.QueryNonzero(q)
		id := b.tr.add("dispatch.handle", -1, -1, t0, time.Now())
		b.tr.time("dispatch.index", id, func() { _, e2 = ix.QueryNonzero(q) })
		b.tr.time("cache.hit", -1, func() { _, e3 = b.h.QueryNonzero(q) })
		if err := errors.Join(e1, e2, e3); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	b.layer["engine.dispatch_us"] = b.medianSpan("dispatch.handle") - b.medianSpan("dispatch.index")
	b.layer["engine.cache.hit_us"] = b.medianSpan("cache.hit")
	return nil
}

// replayStructures builds the paper's structures through the public
// constructors on a shard-sized subset of churn's dataset and queries
// them at uniform points: the two-stage NN≠0 structure (Theorem 3.2),
// the spiral-search π estimator (Theorem 4.7) and the expected-distance
// index.
func (b *bench) replayStructures() error {
	full, side := dataset(rand.New(rand.NewSource(datasetSeed)), b.scaled(20_000))
	sub := full[:len(full)/shards]
	var ts *unn.TwoStageDiscrete
	var sp *unn.Spiral
	var ex *unn.ExpectedIndex
	var err error
	for i := 0; i < replayBuilds; i++ {
		b.tr.time("nonzero.twostage.build", -1, func() { ts = unn.NewTwoStageDiscrete(sub) })
		b.tr.time("quantify.spiral.build", -1, func() { sp, err = unn.NewSpiral(sub) })
		if err != nil {
			return fmt.Errorf("replay: spiral: %w", err)
		}
		b.tr.time("expected.build", -1, func() { ex, err = unn.NewExpectedIndex(sub) })
		if err != nil {
			return fmt.Errorf("replay: expected index: %w", err)
		}
	}
	r := b.rng(streamReplay + 2)
	for i := 0; i < replayQueries; i++ {
		q := unn.Pt(r.Float64()*side, r.Float64()*side)
		b.tr.time("nonzero.twostage.query", -1, func() { sink += len(ts.Query(q)) })
		b.tr.time("quantify.spiral.query", -1, func() {
			p, _ := sp.Query(q, 0.02)
			sink += len(p)
		})
		b.tr.time("expected.query", -1, func() {
			j, _ := ex.NNExpected(q)
			sink += j
		})
	}
	for _, name := range []string{"nonzero.twostage", "quantify.spiral", "expected"} {
		b.layer[name+".build_ms"] = b.medianSpan(name+".build") / 1e3
		b.layer[name+".query_us"] = b.medianSpan(name + ".query")
	}
	return nil
}

// replaySnapshot writes the handle's snapshot and restores it.
func (b *bench) replaySnapshot() error {
	var buf bytes.Buffer
	var err error
	for i := 0; i < replayBuilds && err == nil; i++ {
		buf.Reset()
		b.tr.time("snapshot.write", -1, func() { err = b.h.Snapshot(&buf) })
	}
	for i := 0; i < replayBuilds && err == nil; i++ {
		b.tr.time("snapshot.read", -1, func() { _, err = unn.OpenSnapshot(bytes.NewReader(buf.Bytes())) })
	}
	if err != nil {
		return fmt.Errorf("replay: snapshot: %w", err)
	}
	b.layer["engine.snapshot.write_ms"] = b.medianSpan("snapshot.write") / 1e3
	b.layer["engine.snapshot.read_ms"] = b.medianSpan("snapshot.read") / 1e3
	b.layer["engine.snapshot.bytes"] = float64(buf.Len())
	return nil
}

// replayMutations applies direct inserts and deletes to the handle, then
// reads the dynamic layer's counters over the whole run.
func (b *bench) replayMutations() error {
	r := b.rng(streamReplay + 3)
	fresh, _ := dataset(r, replayMutations)
	var err error
	for _, p := range fresh {
		b.tr.time("dynamic.insert", -1, func() { _, err = b.h.Insert(p) })
		if err != nil {
			return fmt.Errorf("replay: insert: %w", err)
		}
	}
	for i := 0; i < replayMutations; i++ {
		del := r.Intn(len(b.pts))
		b.tr.time("dynamic.delete", -1, func() { err = b.h.Delete(del) })
		if err != nil {
			return fmt.Errorf("replay: delete: %w", err)
		}
	}
	L := b.layer
	L["engine.dynamic.insert_us"] = b.medianSpan("dynamic.insert")
	L["engine.dynamic.delete_us"] = b.medianSpan("dynamic.delete")
	L["engine.dynamic.epochs_per_mutation"] = ratio(float64(b.h.Epoch()-b.epoch0), float64(b.writes+2*replayMutations))
	var inserts, flushes uint64
	if bs, ok := b.h.Index().(interface {
		BufferStats() (int, uint64, uint64)
	}); ok {
		_, inserts, flushes = bs.BufferStats()
	}
	L["engine.dynamic.flushes"] = float64(flushes)
	L["engine.dynamic.inserts_per_flush"] = ratio(float64(inserts), float64(flushes))
	return nil
}

// replayReplan times one manual replan-and-swap cycle; handles without
// the adaptive loop report 0.
func (b *bench) replayReplan() {
	var err error
	b.tr.time("adaptive.replan", -1, func() { _, err = b.h.Replan() })
	if err != nil {
		b.layer["engine.adaptive.replan_ms"] = 0
		return
	}
	b.layer["engine.adaptive.replan_ms"] = b.medianSpan("adaptive.replan") / 1e3
}
