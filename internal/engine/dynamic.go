// The dynamic shard layer: Insert/Delete on a built ShardedIndex with
// incremental rebalancing, so streaming workloads (sensors that move,
// fleets that grow or shrink) are served without full rebuilds — the
// moving-uncertain-data setting of the probabilistic-Voronoi line of
// work, and the dynamic-indexability concern the paper leaves open.
//
// Mutations route to the owning shard by centroid, maintain the global
// id remap (global indices stay dense: Delete(i) shifts every index
// above i down by one, exactly like deleting from a slice) and the
// per-shard bounding boxes, and rebuild only the affected shards'
// backends. A shard whose size drifts past 2× the per-shard target
// splits in two (kd-median on its own centroids); one that falls below
// ½× merges with its nearest spatial neighbor. The target itself tracks
// the live dataset: it is re-derived as ⌈n/k⌉ of the current size with
// ±50% hysteresis (see retarget), so a stream that grows the dataset
// 100× keeps about k shards of growing size instead of fragmenting into
// 100× more shards than cores. Everything is serialized against
// in-flight queries by the RWMutex epoch in ShardedIndex.
package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/uncertain"
)

// ErrImmutable is returned by Engine.Insert/Delete when the wrapped
// index does not support mutations (every monolithic backend).
var ErrImmutable = errors.New("engine: backend does not support mutations")

// Item is one insertion payload. Exactly one field is set, matching the
// dataset kind the index was built over: Point for point datasets,
// Square for squares/diamonds datasets (FromSquares). Inserts that
// would change the dataset kind — e.g. a continuous point into an
// all-discrete dataset — are rejected rather than silently degrading
// the capability set mid-stream.
type Item struct {
	Point  uncertain.Point
	Square *lmetric.Square
}

// Mutable is the dynamic-index contract: ShardedIndex implements it,
// monolithic backends do not. Insert returns the new item's global
// index (always the new Len()-1: inserts append). Delete(i) removes
// item i, shifts the indices above it down by one, and returns the
// live count — taken under the same write lock as the mutation, so it
// is exact even with concurrent mutators.
type Mutable interface {
	Insert(Item) (int, error)
	Delete(i int) (int, error)
	// Epoch returns the number of applied mutations.
	Epoch() uint64
	// Len returns the live item count.
	Len() int
}

// Epoch implements Mutable.
func (sx *ShardedIndex) Epoch() uint64 {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return sx.epoch
}

// Len implements Mutable.
func (sx *ShardedIndex) Len() int {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return sx.n
}

// diskOf extracts the disk uncertainty region of a point, for datasets
// carrying the Disks view.
func diskOf(p uncertain.Point) (geom.Disk, bool) {
	switch v := p.(type) {
	case uncertain.UniformDisk:
		return v.D, true
	case *uncertain.TruncGauss:
		return v.D, true
	}
	return geom.Disk{}, false
}

// ensureOwned clones the dataset views on the first mutation, so the
// dynamic layer never mutates slices the caller handed to Build.
func (sx *ShardedIndex) ensureOwned() {
	if sx.owned {
		return
	}
	sx.ds = &Dataset{
		Points:   slices.Clone(sx.ds.Points),
		Discrete: slices.Clone(sx.ds.Discrete),
		Disks:    slices.Clone(sx.ds.Disks),
		Squares:  slices.Clone(sx.ds.Squares),
	}
	sx.owned = true
}

// Insert implements Mutable: a one-mutation batch through the
// epoch-coalesced path (mutlog.go) — append the item at global index n,
// route it to the nearest shard by centroid (or the insert buffer when
// enabled), rebuild the touched shard's backend once, and rebalance.
func (sx *ShardedIndex) Insert(it Item) (int, error) {
	res, err := sx.BatchMutate([]Mutation{InsertMutation(it)})
	if err != nil {
		return -1, err
	}
	return res[0], nil
}

// poison marks the index broken after a mutation failed past the point
// of no return (dataset and id remap already updated, a shard backend
// not rebuilt): answers would silently misattribute items, so every
// later query and mutation reports this error instead. Backend builds
// only fail on structurally impossible sub-datasets, so hitting this
// means the factory itself is faulty — there is no safe automatic
// rollback.
func (sx *ShardedIndex) poison(err error) error {
	sx.broken = fmt.Errorf("sharded(%s): index poisoned by failed mutation: %w", sx.name, err)
	return sx.broken
}

// Delete implements Mutable: a one-mutation batch through the
// epoch-coalesced path (mutlog.go) — remove global item i, remap every
// index above it, rebuild the owning shard's backend once, and
// rebalance (an emptied shard is dropped, an underfull one merges with
// its nearest spatial neighbor, re-splitting if the merge overshoots).
// The returned count is the live size right after this mutation.
func (sx *ShardedIndex) Delete(i int) (int, error) {
	res, err := sx.BatchMutate([]Mutation{DeleteMutation(i)})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// retarget tracks the per-shard size target against the live dataset
// size: the ideal is ⌈n/k⌉ for the configured shard count k, and the
// stored target snaps to it only when it drifts past ±50% (above 1.5×
// or below ⅔× the current target). The hysteresis band keeps a stream
// that hovers around one size from re-deriving the target — and
// re-judging every shard — on each mutation, while a sustained trend
// ratchets the target along with the data, so very long streams keep
// about k shards instead of fragmenting (the target used to be frozen
// at build time). Reports whether the target shrank, in which case the
// caller must re-establish the ≤ 2×target bound (splitOversized).
func (sx *ShardedIndex) retarget() (shrunk bool) {
	k := sx.opt.Shards
	if k < 1 {
		k = 1
	}
	want := (sx.n + k - 1) / k
	if want < 1 {
		want = 1
	}
	switch {
	case 2*want > 3*sx.target:
		sx.target = want
	case 3*want < 2*sx.target:
		sx.target = want
		return true
	}
	return false
}

// splitOversized restores the per-shard size invariant after the target
// shrank: every shard beyond 2× the new target splits (repeatedly —
// each split halves, so a shard sized against the old target settles in
// O(log ratio) rounds).
func (sx *ShardedIndex) splitOversized() error {
	for si := 0; si < len(sx.shards); si++ {
		for len(sx.shards[si].ids) > 2*sx.target {
			if err := sx.splitShard(si); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkItem validates a mutation payload against the dataset kind, and
// its region against the boundary contract (checkRegion/checkPoint).
func (sx *ShardedIndex) checkItem(it Item) error {
	if sx.ds.Squares != nil {
		if it.Square == nil {
			return fmt.Errorf("sharded(%s): dataset holds squares; Insert needs Item.Square", sx.name)
		}
		return checkRegion("square", it.Square.C, it.Square.R)
	}
	if it.Point == nil {
		return fmt.Errorf("sharded(%s): dataset holds uncertain points; Insert needs Item.Point", sx.name)
	}
	if sx.ds.Discrete != nil {
		if _, ok := it.Point.(*uncertain.Discrete); !ok {
			return fmt.Errorf("sharded(%s): dataset is all-discrete; inserting a %T would drop the discrete specialization (and its capabilities)", sx.name, it.Point)
		}
	}
	if sx.ds.Disks != nil {
		if _, ok := diskOf(it.Point); !ok {
			return fmt.Errorf("sharded(%s): dataset is all-disk; inserting a %T would drop the disk specialization", sx.name, it.Point)
		}
	}
	return checkPoint(it.Point)
}

// routeShard picks the owning shard for a new centroid: the non-empty
// shard with the smallest bounding-box distance (ties to the lowest
// index, for determinism).
func (sx *ShardedIndex) routeShard(c geom.Point) int {
	best, bestD := -1, 0.0
	for si, s := range sx.shards {
		if len(s.ids) == 0 {
			continue
		}
		d := sx.metric.rectDist(c, s.bbox)
		if best < 0 || d < bestD {
			best, bestD = si, d
		}
	}
	return best
}

// refreshBounds recomputes a shard's bounding box from its members
// (boxes only grow under Union, so deletions need the full recompute).
func (sx *ShardedIndex) refreshBounds(s *shard) {
	s.bbox = geom.EmptyRect()
	for _, i := range s.ids {
		s.bbox = s.bbox.Union(itemBounds(sx.ds, i))
	}
}

// rebuildShard re-projects the shard's sub-dataset and rebuilds its
// backend and block index; only mutated shards pay this cost. The
// replaced backend's SoA mirror goes back to the recycle pool — the
// write lock excludes queries, so nothing can still be reading it —
// keeping sustained churn (the insert buffer rebuilds on every insert)
// off the allocator.
func (sx *ShardedIndex) rebuildShard(s *shard) error {
	s.sub = subset(sx.ds, s.ids)
	old := s.ix
	ix, err := sx.factory(s.sub)
	if err != nil {
		return fmt.Errorf("sharded(%s): rebuild shard: %w", sx.name, err)
	}
	s.ix = ix
	s.blocks = sx.blocksFor(s.ids, nil)
	if ob, ok := old.(*bruteIndex); ok && ob.flat != nil {
		recycleShardFlat(ob.flat)
		ob.flat = nil
	}
	return nil
}

// splitShard halves shard si by the kd-median cut on its own centroids
// and builds the two replacement backends in parallel (si's own backend
// is never rebuilt first — it is replaced wholesale).
func (sx *ShardedIndex) splitShard(si int) error {
	s := sx.shards[si]
	// The 2-cut allots ⌊len/2⌋ and ⌈len/2⌉ members, so both halves are
	// non-empty for any shard large enough to split.
	groups := kdMedianSplit(centredItems(sx.ds, s.ids, itemBoxes(sx.ds, s.ids)), 2)
	halves := make([]*shard, len(groups))
	for gi, g := range groups {
		h := &shard{ids: g}
		sx.refreshBounds(h)
		halves[gi] = h
	}
	var wg sync.WaitGroup
	errs := make([]error, len(halves))
	for hi, h := range halves {
		wg.Add(1)
		go func(hi int, h *shard) {
			defer wg.Done()
			errs[hi] = sx.rebuildShard(h)
		}(hi, h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sx.shards = append(sx.shards[:si], append(halves, sx.shards[si+1:]...)...)
	return nil
}

// mergeShard folds shard si into its nearest non-empty neighbor (by
// bounding-box center distance) and rebuilds the union; if the merged
// shard overshoots 2×target it is immediately re-split. The caller
// skips si's own rebuild, so when no partner exists (si is the only
// non-empty shard) si itself is rebuilt here. Shards this call rebuilds
// are removed from dirty (nil is fine), so the epoch finisher never
// builds them a second time.
func (sx *ShardedIndex) mergeShard(si int, dirty map[*shard]bool) error {
	s := sx.shards[si]
	c := s.bbox.Center()
	best, bestD := -1, 0.0
	for ti, t := range sx.shards {
		if ti == si || len(t.ids) == 0 {
			continue
		}
		d := c.Dist(t.bbox.Center())
		if best < 0 || d < bestD {
			best, bestD = ti, d
		}
	}
	if best < 0 {
		delete(dirty, s)
		return sx.rebuildShard(s)
	}
	t := sx.shards[best]
	merged := make([]int, 0, len(s.ids)+len(t.ids))
	merged = append(merged, s.ids...)
	merged = append(merged, t.ids...)
	sort.Ints(merged)
	t.ids = merged
	sx.refreshBounds(t)
	if err := sx.rebuildShard(t); err != nil {
		return err
	}
	delete(dirty, s)
	delete(dirty, t)
	s.sub, s.ix = nil, nil
	sx.shards = append(sx.shards[:si], sx.shards[si+1:]...)
	ti := best
	if best > si {
		ti--
	}
	// The union can overshoot 2×target (and, when the partner had
	// already grown this epoch, even 4×target), so split until every
	// piece honors the bound.
	return sx.splitUntilBounded(ti, dirty)
}

// --- Engine-level mutation wrappers ----------------------------------------

// Mutable reports whether the wrapped index accepts Insert/Delete.
func (e *Engine) Mutable() bool {
	_, ok := e.ix.(Mutable)
	return ok
}

// Epoch returns the wrapped index's mutation epoch (0 for immutable
// backends).
func (e *Engine) Epoch() uint64 {
	if m, ok := e.ix.(Mutable); ok {
		return m.Epoch()
	}
	return 0
}

// Insert routes an insertion to a mutable index and closes the
// engine-side epoch (cache flush + adaptive-quantum refresh). The flush
// happens even when the mutation errors — a failure past the point of
// no return poisons the index, and a stale cache hit would otherwise
// dodge the broken-index error that misses see.
func (e *Engine) Insert(it Item) (int, error) {
	m, ok := e.ix.(Mutable)
	if !ok {
		return -1, fmt.Errorf("%w: %s", ErrImmutable, e.ix.Name())
	}
	gi, err := m.Insert(it)
	e.afterMutation()
	return gi, err
}

// Delete routes a deletion to a mutable index and invalidates the
// answer cache. Indices are dense: deleting i shifts later items down.
func (e *Engine) Delete(i int) error {
	_, err := e.deleteN(i)
	return err
}

// deleteN is Delete returning the live count taken under the
// mutation's own write lock (the Serve stream reports it in Answer.N).
// Like Insert, it flushes the cache even on error (poison safety).
func (e *Engine) deleteN(i int) (int, error) {
	m, ok := e.ix.(Mutable)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrImmutable, e.ix.Name())
	}
	n, err := m.Delete(i)
	e.afterMutation()
	return n, err
}

// BatchMutate applies a mutation burst through the epoch-coalesced path
// of a batch-mutable index (ShardedIndex): the whole batch runs under
// one write lock, each touched shard rebuilds once, and the engine-side
// epoch (cache flush + adaptive-quantum refresh) closes once for the
// burst instead of once per item. Results are per mutation: the
// assigned global index for inserts, the live count for deletes.
func (e *Engine) BatchMutate(ms []Mutation) ([]int, error) {
	bm, ok := e.ix.(BatchMutable)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrImmutable, e.ix.Name())
	}
	if len(ms) == 0 {
		return nil, nil // a guaranteed no-op must not flush a hot cache
	}
	res, err := bm.BatchMutate(ms)
	e.afterMutation()
	return res, err
}

// afterMutation closes one engine-side mutation epoch: re-derive the
// adaptive cache quantum, then flush the answer cache (every cached
// answer may change when the dataset does). The tighten MUST precede
// the flush — in the other order a concurrent miss could key an entry
// under the old coarse grid after the flush and have it survive, mixing
// two grids in one cache. The flush runs even when the mutation erred —
// see Insert.
func (e *Engine) afterMutation() {
	e.maybeTightenQuantum()
	if e.cache != nil {
		e.cache.invalidate()
	}
}

// maybeTightenQuantum refreshes the adaptive cache quantum after a
// mutation epoch. The quantum was resolved from the built structure at
// Open, but mutations change centroid spacing: a stream that densifies
// the dataset would leave the quantum too coarse, and nearby-but-
// distinct queries would share one cached answer. The refresh is
// monotone — the quantum only tightens — so answer sharing can only get
// more precise mid-stream, never coarser (a coarsening could silently
// glue previously distinct cells together).
func (e *Engine) maybeTightenQuantum() {
	if !e.adaptive {
		return
	}
	var q float64
	switch h := e.ix.(type) {
	case *ShardedIndex:
		// The cheap O(k) source: per-part hints, re-derived by the very
		// rebuilds this mutation paid for. The full QuantumHint would
		// re-estimate over the whole dataset on every mutation.
		q = h.shardQuantumHint()
	case quantumHinter:
		q = h.QuantumHint()
	default:
		return
	}
	cur := e.CacheQuantum()
	if q > 0 && cur > 0 && q < cur {
		e.quantum.Store(math.Float64bits(q))
		if e.cache != nil {
			e.cache.setQuantum(q)
		}
	}
}
