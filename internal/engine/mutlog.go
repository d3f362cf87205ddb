// Mutation batching: the epoch-coalesced mutation path of the dynamic
// shard layer, plus the log-structured insert buffer.
//
// The per-item path (dynamic.go) rebuilds the owning shard's backend on
// every Insert/Delete, so a burst of m mutations landing in one shard
// pays m full rebuilds where one would do — exactly the sustained
// update traffic the moving/streaming-data setting presumes.
// BatchMutate closes that gap: a whole burst applies under one write
// lock with sequential semantics (each delete index is interpreted
// against the state left by the mutations before it, exactly as if the
// ops ran one at a time), the dataset views and the global id remap are
// updated per item, but each *touched* shard's backend rebuilds once at
// the end of the batch — one epoch — and the rebalancer (retarget,
// split, merge) runs once over the touched shards instead of once per
// item.
//
// The insert buffer (ShardOptions.InsertBuffer) defers even that: new
// items append to a small delta shard that is queried alongside the
// main shards through the ordinary merge planner — NN≠0 merges exactly
// under the global Lemma 2.1 filter, π through the cross-shard
// renormalization, E[d] through the min-reduce — so correctness is the
// planner's existing contract, not a special case. The buffer's backend
// is rebuilt on each insert, but the buffer is small (its size is
// bounded by the flush threshold), so that rebuild is the cheap,
// log-structured append. When the buffer crosses the threshold it
// flushes: its members route to their owning main shards, which rebuild
// once — one shard rebuild amortized over a threshold's worth of
// inserts. The threshold itself falls out of the cost model (cost.go):
// the flush cost C_f ≈ BuildCost(backend, target) amortizes as C_f/F
// per insert while every query pays ~c_q·F/2 extra for scanning the
// buffer, so the minimizer of C_f/F + c_q·F/2 is F* = sqrt(2·C_f/c_q)
// (assuming about one query per mutation; ShardOptions.FlushThreshold
// overrides the choice).
package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"unn/internal/geom"
	"unn/internal/kernel"
	"unn/internal/uncertain"
)

// Mutation is one entry of a BatchMutate burst: Op is OpInsert or
// OpDelete, with the matching payload field set. Delete indices use
// sequential semantics — each is interpreted against the dataset state
// left by the mutations before it in the batch, exactly as if the batch
// ran one mutation at a time.
type Mutation struct {
	Op   Capability // OpInsert or OpDelete
	Item Item       // OpInsert payload
	Del  int        // OpDelete target index
}

// InsertMutation builds an OpInsert batch entry.
func InsertMutation(it Item) Mutation { return Mutation{Op: OpInsert, Item: it} }

// DeleteMutation builds an OpDelete batch entry.
func DeleteMutation(i int) Mutation { return Mutation{Op: OpDelete, Del: i} }

// BatchMutable is the batched-mutation contract: ShardedIndex
// implements it on top of Mutable. BatchMutate applies the burst under
// one write lock and rebuilds each touched shard once — one epoch bump
// for the whole batch. The returned slice has one entry per mutation:
// the assigned global index for an insert, the live item count right
// after the op for a delete. Validation is atomic: an invalid entry
// (wrong payload kind, out-of-range delete, deleting the last item)
// rejects the whole batch before anything is applied.
type BatchMutable interface {
	Mutable
	BatchMutate([]Mutation) ([]int, error)
}

// BatchMutate implements BatchMutable.
func (sx *ShardedIndex) BatchMutate(ms []Mutation) ([]int, error) {
	sx.mu.Lock()
	defer sx.mu.Unlock()
	if sx.ds == nil {
		return nil, fmt.Errorf("sharded(%s): mutation before Build", sx.name)
	}
	if sx.broken != nil {
		return nil, sx.broken
	}
	if len(ms) == 0 {
		return nil, nil
	}
	// Atomic validation against the virtual size: the batch is simulated
	// index-wise before anything mutates, so a bad entry leaves the index
	// (and its epoch) untouched.
	vn := sx.n
	for mi, m := range ms {
		switch m.Op {
		case OpInsert:
			if err := sx.checkItem(m.Item); err != nil {
				return nil, fmt.Errorf("batch mutation %d: %w", mi, err)
			}
			vn++
		case OpDelete:
			if m.Del < 0 || m.Del >= vn {
				return nil, fmt.Errorf("sharded(%s): batch mutation %d: Delete(%d) out of range [0,%d)", sx.name, mi, m.Del, vn)
			}
			if vn == 1 {
				return nil, fmt.Errorf("sharded(%s): batch mutation %d: cannot delete the last item", sx.name, mi)
			}
			vn--
		default:
			return nil, fmt.Errorf("sharded(%s): batch mutation %d: Op %v is not OpInsert or OpDelete", sx.name, mi, m.Op)
		}
	}
	sx.ensureOwned()

	// Each delete splices the SoA mirror in O(n); a delete-heavy burst
	// would pay that per op where one re-derivation at the end of the
	// epoch (finishEpoch) costs a single O(n) refill into the same
	// slices. Break-even sits at a handful of deletes — past it, mark
	// the mirror stale so the per-op maintenance skips.
	const rebuildMirrorDeletes = 4
	if sx.flat != nil {
		dels := 0
		for _, m := range ms {
			if m.Op == OpDelete {
				dels++
			}
		}
		if dels >= rebuildMirrorDeletes {
			sx.flatStale = true
		}
	}

	dirty := make(map[*shard]bool)
	shrunk := make(map[*shard]bool)
	res := make([]int, len(ms))
	for mi, m := range ms {
		if m.Op == OpInsert {
			res[mi] = sx.applyInsert(m.Item, dirty)
		} else {
			if err := sx.applyDelete(m.Del, dirty, shrunk); err != nil {
				return nil, sx.poison(err)
			}
			res[mi] = sx.n
		}
	}
	if err := sx.finishEpoch(dirty, shrunk); err != nil {
		return nil, sx.poison(err)
	}
	return res, nil
}

// applyInsert appends the (already validated) item to the dataset views
// at global index n and assigns it to a shard — the insert buffer when
// enabled, otherwise the nearest main shard by centroid — without
// rebuilding anything; finishEpoch rebuilds the touched shards once.
func (sx *ShardedIndex) applyInsert(it Item, dirty map[*shard]bool) int {
	gi := sx.n
	if sx.ds.Squares != nil {
		sx.ds.Squares = append(sx.ds.Squares, *it.Square)
	} else {
		sx.ds.Points = append(sx.ds.Points, it.Point)
		if sx.ds.Discrete != nil {
			sx.ds.Discrete = append(sx.ds.Discrete, it.Point.(*uncertain.Discrete))
		}
		if sx.ds.Disks != nil {
			d, _ := diskOf(it.Point)
			sx.ds.Disks = append(sx.ds.Disks, d)
		}
	}
	sx.n++
	sx.flatInsertRow(gi)
	if sx.buf != nil {
		sx.bufInserts++
		sx.buf.ids = append(sx.buf.ids, gi)
		sx.buf.bbox = sx.buf.bbox.Union(itemBounds(sx.ds, gi))
		dirty[sx.buf] = true
		return gi
	}
	s := sx.shardForInsert(gi)
	s.ids = append(s.ids, gi) // gi is the maximum id: stays ascending
	s.bbox = s.bbox.Union(itemBounds(sx.ds, gi))
	dirty[s] = true
	return gi
}

// shardForInsert resolves the owning main shard for the new item gi:
// the routeShard choice, or — in the degenerate state where every main
// shard is empty (all live items sit in the insert buffer, or the shard
// list was drained) — a fresh shard, so the insert lands somewhere
// instead of panicking on shards[-1].
func (sx *ShardedIndex) shardForInsert(gi int) *shard {
	if si := sx.routeShard(centroid(sx.ds, gi)); si >= 0 {
		return sx.shards[si]
	}
	s := &shard{bbox: geom.EmptyRect()}
	sx.shards = append(sx.shards, s)
	return s
}

// applyDelete removes global item i from the views and every shard's id
// list (the dense remap: ids above i shift down by one, in the main
// shards and the insert buffer alike, in their block orders as in their
// id lists) without rebuilding; the owning shard is marked dirty for
// finishEpoch, and shrunk because its bounding box may have tightened
// (inserts only grow boxes, so only delete-touched shards pay the
// bounds recompute).
func (sx *ShardedIndex) applyDelete(i int, dirty, shrunk map[*shard]bool) error {
	var owner *shard
	remap := func(s *shard) {
		pos := sort.SearchInts(s.ids, i)
		if pos < len(s.ids) && s.ids[pos] == i {
			owner = s
			s.ids = append(s.ids[:pos], s.ids[pos+1:]...)
		}
		for j := sort.SearchInts(s.ids, i); j < len(s.ids); j++ {
			s.ids[j]--
		}
		s.blocks.shiftAbove(i)
	}
	for _, s := range sx.shards {
		remap(s)
	}
	if sx.buf != nil {
		remap(sx.buf)
	}
	if owner == nil {
		return fmt.Errorf("id remap lost item %d", i)
	}
	if sx.ds.Squares != nil {
		sx.ds.Squares = append(sx.ds.Squares[:i], sx.ds.Squares[i+1:]...)
	} else {
		sx.ds.Points = append(sx.ds.Points[:i], sx.ds.Points[i+1:]...)
		if sx.ds.Discrete != nil {
			sx.ds.Discrete = append(sx.ds.Discrete[:i], sx.ds.Discrete[i+1:]...)
		}
		if sx.ds.Disks != nil {
			sx.ds.Disks = append(sx.ds.Disks[:i], sx.ds.Disks[i+1:]...)
		}
	}
	sx.n--
	if f := sx.flat; f != nil && !sx.flatStale {
		if f.N == sx.n+1 {
			f.DeleteRow(i)
		} else {
			// Mirror out of step with the views (only possible when the
			// dataset was swapped out from under the index): re-derive it.
			sx.flat = flatForDataset(sx.ds, sx.metric)
		}
	}
	dirty[owner] = true
	shrunk[owner] = true
	return nil
}

// flatInsertRow mirrors the freshly appended dataset row gi into the
// SoA mirror, following flatForDataset's family precedence (the mirror
// keeps exactly one layout even when a dataset carries several views).
// Keeping the mirror in step per-op costs O(k) on insert and the same
// O(n) splice the views already pay on delete — where a full
// flatForDataset rebuild per epoch would put an O(n) copy on every
// mutation, tripling the streaming-mutation cost at E18 scale. When the
// mirror disagrees with the views (a swapped-out dataset), it is
// re-derived instead of extended.
func (sx *ShardedIndex) flatInsertRow(gi int) {
	f := sx.flat
	if f == nil || sx.flatStale {
		return
	}
	ok := f.N == gi
	if ok {
		switch f.Kind {
		case kernel.KindSquares:
			if ok = len(sx.ds.Squares) > gi; ok {
				s := sx.ds.Squares[gi]
				f.AppendRegionRow(s.C.X, s.C.Y, s.R)
			}
		case kernel.KindDiscrete:
			if ok = len(sx.ds.Discrete) > gi; ok {
				p := sx.ds.Discrete[gi]
				f.AppendDiscreteRow(p.Locs, p.W)
			}
		default:
			if ok = len(sx.ds.Disks) > gi; ok {
				d := sx.ds.Disks[gi]
				f.AppendRegionRow(d.C.X, d.C.Y, d.R)
			}
		}
	}
	if !ok {
		sx.flat = flatForDataset(sx.ds, sx.metric)
	}
}

// finishEpoch closes one mutation epoch (a single op or a whole batch):
// flush the insert buffer if it crossed the threshold, drop emptied
// shards, re-derive the touched bounding boxes, re-track the size
// target, rebalance the touched shards (merge underfull, split
// oversized — split/merge build their replacement backends themselves,
// so a shard that rebalances is never built twice), rebuild whatever
// touched shards remain, and bump the epoch once.
func (sx *ShardedIndex) finishEpoch(dirty, shrunk map[*shard]bool) error {
	if sx.buf != nil && len(sx.buf.ids) >= sx.flushThreshold() {
		sx.flushBuffer(dirty)
	}
	for si := 0; si < len(sx.shards); si++ {
		s := sx.shards[si]
		if len(s.ids) == 0 {
			s.sub, s.ix = nil, nil
			delete(dirty, s)
			sx.shards = append(sx.shards[:si], sx.shards[si+1:]...)
			si--
		}
	}
	// Boxes only grow under Union, so delete-touched shards need the
	// full recompute before the rebalancer reads them (insert-only
	// shards had their unions applied in place).
	for s := range shrunk {
		if dirty[s] {
			sx.refreshBounds(s)
		}
	}
	targetShrunk := sx.retarget()

	// Merge: only touched shards can have fallen below the threshold
	// this epoch (matching the per-item path, which judges the mutated
	// shard only). The loop terminates because mergeShard always removes
	// the dirty victim (and never re-dirties a shard), so the set of
	// dirty-underfull candidates strictly shrinks — the shard list
	// itself may grow when an overshooting union re-splits.
	for len(sx.shards) > 1 {
		victim := -1
		for si, s := range sx.shards {
			if dirty[s] && len(s.ids) < (sx.target+1)/2 {
				victim = si
				break
			}
		}
		if victim < 0 {
			break
		}
		if err := sx.mergeShard(victim, dirty); err != nil {
			return err
		}
	}
	// Split: touched shards over 2×target (recursively — a buffer flush
	// can overshoot by several halvings, and BOTH halves of a split may
	// still exceed the bound), plus the global sweep when the tracked
	// target shrank.
	for si := 0; si < len(sx.shards); si++ {
		if !dirty[sx.shards[si]] {
			continue
		}
		if err := sx.splitUntilBounded(si, dirty); err != nil {
			return err
		}
	}
	if targetShrunk {
		if err := sx.splitOversized(); err != nil {
			return err
		}
	}
	if err := sx.rebuildDirty(dirty); err != nil {
		return err
	}
	// The SoA mirror normally needs no refresh here:
	// flatInsertRow/applyDelete keep it in step row-by-row, and
	// rebalancing only regroups shard id lists — the mirror is indexed by
	// global id, which rebalancing never changes. It is re-derived only
	// when a delete-heavy batch marked it stale (BatchMutate) in favor of
	// one O(n) refill — into the stale mirror's own slices — per epoch.
	if sx.flatStale {
		sx.flat = flatForDatasetInto(sx.flat, sx.ds, sx.metric)
		sx.flatStale = false
	}
	sx.epoch++
	sx.recomputeCaps()
	return nil
}

// splitUntilBounded restores the ≤ 2×target size bound at position si:
// splitShard halves the shard, but when the overshoot exceeds 4×target
// (a large buffer flush into one hot shard) each half may still break
// the bound, so both replacement halves recurse until every piece fits.
// The right half (si+1) goes first — its splits insert behind it and
// never shift position si.
func (sx *ShardedIndex) splitUntilBounded(si int, dirty map[*shard]bool) error {
	s := sx.shards[si]
	if len(s.ids) <= 2*sx.target {
		return nil
	}
	if err := sx.splitShard(si); err != nil {
		return err
	}
	delete(dirty, s)
	if err := sx.splitUntilBounded(si+1, dirty); err != nil {
		return err
	}
	return sx.splitUntilBounded(si, dirty)
}

// rebuildDirty rebuilds the backends of every still-live touched shard
// — each exactly once per epoch, in parallel (bounded by BuildWorkers)
// when a batch touched several.
func (sx *ShardedIndex) rebuildDirty(dirty map[*shard]bool) error {
	var todo []*shard
	for _, s := range sx.shards {
		if dirty[s] {
			todo = append(todo, s)
		}
	}
	if sx.buf != nil && dirty[sx.buf] {
		if len(sx.buf.ids) == 0 {
			sx.buf.sub, sx.buf.ix, sx.buf.blocks = nil, nil, blockIndex{}
		} else {
			todo = append(todo, sx.buf)
		}
	}
	switch len(todo) {
	case 0:
		return nil
	case 1:
		return sx.rebuildShard(todo[0])
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, sx.opt.BuildWorkers)
	errs := make([]error, len(todo))
	for ti, s := range todo {
		wg.Add(1)
		go func(ti int, s *shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[ti] = sx.rebuildShard(s)
		}(ti, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- the insert buffer ------------------------------------------------------

// BufferStats reports the insert buffer's counters: the current
// buffered item count, total buffered inserts, and flush count —
// 1 − flushes/inserts is the fraction of inserts absorbed without a
// main-shard rebuild (the E20 "buffer hit fraction").
func (sx *ShardedIndex) BufferStats() (buffered int, inserts, flushes uint64) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.buf == nil {
		return 0, 0, 0
	}
	return len(sx.buf.ids), sx.bufInserts, sx.bufFlushes
}

// flushThreshold resolves the buffer capacity: the configured override,
// or the cost model's minimizer F* = sqrt(2·C_flush/c_query) of the
// amortized flush cost C_flush/F against the per-query buffer-scan
// overhead c_query·F/2 (one query per mutation assumed; C_flush is the
// configured backend's build cost at the per-shard target, c_query the
// reference oracle's per-item scan cost). Clamped to [8, 2×target]
// (floor wins for tiny targets) so a miscalibrated model can neither
// thrash nor let the buffer outgrow the shards it feeds.
func (sx *ShardedIndex) flushThreshold() int {
	if sx.opt.FlushThreshold > 0 {
		return sx.opt.FlushThreshold
	}
	if sx.model == nil {
		sx.model = NewCostModel(nil)
	}
	conf := sx.backend
	if conf == "" {
		conf = BackendBrute // factory-built (auto/planned) fleets: the reference cost
	}
	flush := sx.model.BuildCost(conf, sx.target+1)
	marginal := sx.model.QueryCost(BackendBrute, CapNonzero, 1)
	if marginal <= 0 {
		marginal = 1
	}
	f := int(math.Sqrt(2 * flush / marginal))
	lo, hi := 8, 2*sx.target
	if hi < lo {
		hi = lo
	}
	if f < lo {
		f = lo
	}
	if f > hi {
		f = hi
	}
	return f
}

// flushBuffer drains the insert buffer into the main shards: every
// buffered item routes to its owning shard by centroid, the touched
// shards are marked dirty (finishEpoch rebuilds each once), and the
// buffer resets. When no non-empty main shard exists the buffer itself
// becomes a fresh main shard — the flush-side counterpart of
// shardForInsert's degenerate-state fallback.
func (sx *ShardedIndex) flushBuffer(dirty map[*shard]bool) {
	if len(sx.buf.ids) == 0 {
		return
	}
	sx.bufFlushes++
	hasMain := false
	for _, s := range sx.shards {
		if len(s.ids) > 0 {
			hasMain = true
			break
		}
	}
	if !hasMain {
		ns := &shard{ids: sx.buf.ids, bbox: sx.buf.bbox}
		sx.shards = append(sx.shards, ns)
		dirty[ns] = true
	} else {
		touched := make(map[*shard]bool)
		for _, gi := range sx.buf.ids {
			s := sx.shards[sx.routeShard(centroid(sx.ds, gi))]
			s.ids = append(s.ids, gi)
			s.bbox = s.bbox.Union(itemBounds(sx.ds, gi))
			touched[s] = true
		}
		// Buffered ids are the most recent inserts, so they exceed every
		// main-shard id and the appends above stay ascending; the sort is
		// a cheap guard of the subset() precondition all the same.
		for s := range touched {
			sort.Ints(s.ids)
			dirty[s] = true
		}
	}
	delete(dirty, sx.buf)
	sx.buf = &shard{bbox: geom.EmptyRect()}
}
