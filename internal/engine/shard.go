package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"unn/internal/geom"
	"unn/internal/kernel"
)

// Split selects the spatial partitioner of a ShardedIndex.
type Split uint8

const (
	// SplitKDMedian recursively halves the point set by the median
	// centroid coordinate along the wider axis (balanced shards).
	SplitKDMedian Split = iota
	// SplitGrid cuts the centroid bounding box into a near-square grid of
	// uniform cells (shards follow spatial density, may be unbalanced).
	SplitGrid
)

// ShardOptions tunes the sharded execution layer. The zero value of
// Shards disables sharding (see BuildSharded).
type ShardOptions struct {
	// Shards is the number of spatial shards k (k ≥ 1). Shards may be
	// empty when k exceeds the dataset size. It also seeds the dynamic
	// layer's per-shard size target at ⌈n/k⌉ of the initial build; under
	// Insert/Delete the target tracks ⌈n/k⌉ of the *live* size with
	// hysteresis (see dynamic.go), so long streams keep the shard count
	// near k instead of fragmenting into ever more shards.
	Shards int
	// Split selects the partitioner. Default SplitKDMedian.
	Split Split
	// BuildWorkers bounds the parallel per-shard builds. Default
	// runtime.NumCPU().
	BuildWorkers int
	// InsertBuffer enables the log-structured insert buffer (mutlog.go):
	// inserts append to a small delta shard queried alongside the main
	// shards instead of rebuilding an owning shard per item, and the
	// buffer flushes into the owning shards when it crosses the flush
	// threshold.
	InsertBuffer bool
	// FlushThreshold overrides the insert-buffer capacity; ≤ 0 lets the
	// cost model choose (see ShardedIndex.flushThreshold).
	FlushThreshold int
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.BuildWorkers <= 0 {
		o.BuildWorkers = runtime.NumCPU()
	}
	return o
}

// qmetric is the metric the merge planner uses for distance bounds; it
// must match the metric of the wrapped backend (the lmetric backends
// answer under L∞/L1, everything else under L2).
type qmetric uint8

const (
	metricL2 qmetric = iota
	metricLinf
	metricL1
)

func metricFor(b Backend) qmetric {
	switch b {
	case BackendTwoStageLinf:
		return metricLinf
	case BackendTwoStageL1:
		return metricL1
	default:
		return metricL2
	}
}

// rectDist is the metric distance from q to the rectangle (0 inside) —
// the per-shard lower bound that drives pruning.
func (m qmetric) rectDist(q geom.Point, r geom.Rect) float64 {
	dx := math.Max(0, math.Max(r.Min.X-q.X, q.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-q.Y, q.Y-r.Max.Y))
	switch m {
	case metricLinf:
		return math.Max(dx, dy)
	case metricL1:
		return dx + dy
	default:
		return math.Hypot(dx, dy)
	}
}

// shard is one spatial partition: the global indices it owns (ascending,
// so sub-dataset order preserves global relative order), the backend
// built over the sub-dataset, and the bounding box of its uncertainty
// regions. ix is nil for empty shards.
type shard struct {
	ids  []int
	sub  *Dataset
	ix   Index
	bbox geom.Rect
	// blocks is the part's scan layout for the Lemma 2.1 scan (blocks.go),
	// derived whenever ix is built, rebuilt or restored.
	blocks blockIndex
	// visits counts the queries per registered kind that actually scanned
	// this shard — merges that prune the shard by its lower bound do not
	// count it. Read by Engine.Stats (ShardQueries); the counters live on
	// the shard struct, so they survive in-place rebuilds and reset when
	// rebalancing replaces the shard.
	visits [numKinds]atomic.Uint64
	// rows counts, per kind, the rows the Lemma 2.1 scan evaluated in
	// this shard (Stats.ShardQueries[].Rows): rows/visit is the block
	// pruning's reach inside the shard.
	rows [numKinds]atomic.Uint64
	// rates is the windowed per-kind EWMA of visits — the shard's workload
	// profile, maintained by the adaptive replanning loop (adaptive.go):
	// each observation window folds the visit delta since the previous
	// window into an exponential moving average. Stored as float64 bits so
	// the single writer (the adaptive tick, which runs under the query
	// read lock) never tears against Stats readers. The sum over kinds is
	// the shard's temperature. Like visits, rates survive in-place
	// rebuilds and reset when rebalancing replaces the shard.
	rates [numKinds]atomic.Uint64
	// lastVisits is the adaptive tick's private snapshot of visits at the
	// previous window boundary (only the tick reads or writes it).
	lastVisits [numKinds]uint64
}

// rate returns the shard's EWMA visit rate for one kind slot.
func (s *shard) rate(i int) float64 { return math.Float64frombits(s.rates[i].Load()) }

// setRate stores the shard's EWMA visit rate for one kind slot.
func (s *shard) setRate(i int, v float64) { s.rates[i].Store(math.Float64bits(v)) }

// temp is the shard's temperature: its EWMA visit rate summed over
// kinds — visits per observation window. Hot shards justify expensive
// structures; cold shards demote to brute (see adaptive.go).
func (s *shard) temp() float64 {
	t := 0.0
	for i := 0; i < numKinds; i++ {
		t += s.rate(i)
	}
	return t
}

// ShardedIndex is the sharded execution layer: it splits a Dataset into
// k spatial shards, builds one backend instance per shard in parallel,
// and answers queries by merging per-shard answers with distance-based
// shard pruning (see plan.go). It implements Index, so it composes with
// the batch/cache/serve machinery exactly like a monolithic backend;
// it additionally implements Mutable (see dynamic.go), so a built index
// accepts Insert/Delete with incremental shard rebalancing.
type ShardedIndex struct {
	name    string
	backend Backend // empty for factory-built (auto) wrappers
	factory func(*Dataset) (Index, error)
	metric  qmetric
	opt     ShardOptions
	bopt    BuildOptions

	// planNote is the dataset-level plan description when the factory is
	// the cost-based planner (BuildPlanned); Explain prepends it.
	planNote string

	// mu is the mutation epoch lock: queries hold it shared, Insert and
	// Delete exclusively, so every query observes a consistent epoch —
	// never a half-applied mutation or mid-rebalance shard list.
	mu    sync.RWMutex
	epoch uint64
	// target is the per-shard size target: seeded at Build as ⌈n/k⌉ and
	// re-tracked against the live n with hysteresis by the dynamic layer
	// (see retarget).
	target int
	// broken poisons the index after a mutation failed mid-rebuild: the
	// dataset and id remap were already updated, so shard backends no
	// longer agree with the global numbering and every answer would be
	// silently wrong. Queries and further mutations return this error.
	broken error

	ds    *Dataset
	owned bool // ds views are private copies (first mutation clones)

	// spacing is autoQuantum(ds) as Build derived it from the build's
	// centroids; spacingOK is cleared by the first mutation, after which
	// QuantumHint re-estimates from the live dataset.
	spacing   float64
	spacingOK bool

	// flat is the SoA mirror of ds for the flat merge kernels (plan.go):
	// built at Build, kept in step row-by-row by the mutation paths
	// (flatInsertRow / kernel.Flat.DeleteRow), nil for dataset shapes
	// without a flat layout (mixed region families). Indexed by global
	// id, so shard id lists index straight into it. flatStale marks a
	// mirror a delete-heavy batch chose not to maintain per-op; it is
	// re-derived (reusing the stale slices) once in finishEpoch and never
	// read while stale — both flags only change under the write lock.
	flat      *kernel.Flat
	flatStale bool

	shards []*shard
	caps   Capability
	n      int

	// buf is the log-structured insert buffer (nil unless
	// ShardOptions.InsertBuffer): a delta shard outside the rebalancer's
	// jurisdiction, queried alongside the main shards and flushed into
	// them when it crosses the flush threshold (mutlog.go).
	buf        *shard
	bufInserts uint64
	bufFlushes uint64
	// model prices the flush threshold; BuildPlanned shares the
	// planner's calibrated model, everything else lazily falls back to
	// the seeded defaults.
	model *CostModel

	// popt records the planner configuration when the factory is the
	// cost-based planner (BuildPlanned). Snapshots persist it (with the
	// model's coefficients) so a restored index re-plans shards
	// identically under future mutations.
	popt *PlannerOptions
}

// NewSharded returns an unbuilt sharded wrapper over the named backend.
func NewSharded(b Backend, bopt BuildOptions, sopt ShardOptions) (*ShardedIndex, error) {
	if _, err := NewIndex(b, bopt); err != nil {
		return nil, err
	}
	if sopt.Shards < 1 {
		return nil, fmt.Errorf("engine: sharded %s: need Shards ≥ 1, got %d", b, sopt.Shards)
	}
	return &ShardedIndex{
		name:    string(b),
		backend: b,
		factory: func(sub *Dataset) (Index, error) { return Build(b, sub, bopt) },
		metric:  metricFor(b),
		opt:     sopt.withDefaults(),
		bopt:    bopt,
	}, nil
}

// newShardedFunc is NewSharded for factory-built backends (Auto and the
// planner); the metric defaults to L2 there. bopt is the build
// configuration the factory closes over — recorded so snapshots see the
// same options the factory uses.
func newShardedFunc(name string, factory func(*Dataset) (Index, error), bopt BuildOptions, sopt ShardOptions) *ShardedIndex {
	return &ShardedIndex{name: name, factory: factory, metric: metricL2, opt: sopt.withDefaults(), bopt: bopt}
}

// BuildSharded builds backend b over ds, wrapped in a ShardedIndex when
// sopt.Shards ≥ 1; sopt.Shards ≤ 0 falls back to the plain monolithic
// Build.
func BuildSharded(b Backend, ds *Dataset, bopt BuildOptions, sopt ShardOptions) (Index, error) {
	if sopt.Shards <= 0 {
		return Build(b, ds, bopt)
	}
	sx, err := NewSharded(b, bopt, sopt)
	if err != nil {
		return nil, err
	}
	if err := sx.Build(ds); err != nil {
		return nil, fmt.Errorf("engine: build sharded %s: %w", b, err)
	}
	return sx, nil
}

// Name implements Index.
func (sx *ShardedIndex) Name() string {
	return fmt.Sprintf("sharded(%s,k=%d)", sx.name, sx.opt.Shards)
}

// Capabilities implements Index: the intersection of the capabilities of
// the built shards (empty shards constrain nothing).
func (sx *ShardedIndex) Capabilities() Capability {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return sx.caps
}

// Shards returns the current number of shards (including empty ones);
// the count changes as the dynamic layer splits and merges.
func (sx *ShardedIndex) Shards() int {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return len(sx.shards)
}

// shardSizes reports the per-shard item counts (diagnostics and tests).
func (sx *ShardedIndex) shardSizes() []int {
	sizes := make([]int, len(sx.shards))
	for i, s := range sx.shards {
		sizes[i] = len(s.ids)
	}
	return sizes
}

// centroid returns the partitioning key of item i: the center of its
// uncertainty-region bounding box.
func centroid(ds *Dataset, i int) geom.Point {
	return centreOf(ds, i, itemBounds(ds, i))
}

// centreOf is centroid(ds, i) read off box, item i's precomputed region
// box. Squares keep their exact centre, which the box's midpoint can
// miss by an ulp.
func centreOf(ds *Dataset, i int, box geom.Rect) geom.Point {
	if ds.Squares != nil {
		return ds.Squares[i].C
	}
	return box.Center()
}

// itemBounds returns the bounding box of item i's uncertainty region.
func itemBounds(ds *Dataset, i int) geom.Rect {
	if ds.Squares != nil {
		s := ds.Squares[i]
		return geom.Rect{
			Min: geom.Pt(s.C.X-s.R, s.C.Y-s.R),
			Max: geom.Pt(s.C.X+s.R, s.C.Y+s.R),
		}
	}
	return ds.Points[i].Support()
}

// itemBoxes returns the region box of every id, ids[k]'s at k. A build
// computes them once and hands them to every consumer: the partition,
// the shard bounds, the block indexes and the cache-quantum estimate.
func itemBoxes(ds *Dataset, ids []int) []geom.Rect {
	boxes := make([]geom.Rect, len(ids))
	for k, i := range ids {
		boxes[k] = itemBounds(ds, i)
	}
	return boxes
}

// unionAll returns the smallest rectangle containing every box.
func unionAll(boxes []geom.Rect) geom.Rect {
	r := geom.EmptyRect()
	for _, b := range boxes {
		r = r.Union(b)
	}
	return r
}

// subset projects ds onto the given (ascending) global indices,
// preserving every specialized view the parent has.
func subset(ds *Dataset, ids []int) *Dataset {
	return &Dataset{
		Points:   project(ds.Points, ids),
		Discrete: project(ds.Discrete, ids),
		Disks:    project(ds.Disks, ids),
		Squares:  project(ds.Squares, ids),
	}
}

// project returns vs[ids[0]], vs[ids[1]], …; nil when vs is nil (the
// view is absent) or ids is empty.
func project[T any](vs []T, ids []int) []T {
	if vs == nil || len(ids) == 0 {
		return nil
	}
	out := make([]T, len(ids))
	for k, i := range ids {
		out[k] = vs[i]
	}
	return out
}

// centred is one item of the partitioner: its centroid (x, y) and its
// global id.
type centred struct {
	c  [2]float64
	id int
}

// before orders items by their centroid coordinate on axis (0 = x,
// 1 = y), ties by id: a strict total order, so the partition it induces
// does not depend on the algorithm that applies it.
func (a *centred) before(b *centred, axis int) bool {
	if a.c[axis] != b.c[axis] {
		return a.c[axis] < b.c[axis]
	}
	return a.id < b.id
}

// centredItems pairs each id with its centroid, read off boxes (ids[k]'s
// region box at k), so the partitioner never touches a region again.
func centredItems(ds *Dataset, ids []int, boxes []geom.Rect) []centred {
	items := make([]centred, len(ids))
	for k, i := range ids {
		c := centreOf(ds, i, boxes[k])
		items[k] = centred{c: [2]float64{c.X, c.Y}, id: i}
	}
	return items
}

// partition splits items (in ascending id order) into exactly k groups
// (some possibly empty), each sorted ascending. It reorders items.
func partition(items []centred, k int, split Split) [][]int {
	if split == SplitGrid {
		return gridSplit(items, k)
	}
	return kdMedianSplit(items, k)
}

// centreBox returns the bounding box of the items' centroids.
func centreBox(items []centred) geom.Rect {
	box := geom.EmptyRect()
	for _, it := range items {
		box = box.Extend(geom.Pt(it.c[0], it.c[1]))
	}
	return box
}

// kdMedianSplit recursively splits by the median centroid coordinate
// along the wider axis, allotting shards proportionally so any k ≥ 1
// (not only powers of two) yields balanced parts. The left side is the
// first items under the before order, found by selection (no full sort:
// the order is total, so the set is the one a sort would cut), and both
// sides recurse on sub-slices in place. Each group comes back sorted
// ascending.
func kdMedianSplit(items []centred, k int) [][]int {
	if k == 1 {
		if len(items) == 0 {
			return [][]int{nil}
		}
		ids := make([]int, len(items))
		for j, it := range items {
			ids[j] = it.id
		}
		slices.Sort(ids)
		return [][]int{ids}
	}
	kl := k / 2
	kr := k - kl
	axis := 0
	if box := centreBox(items); box.Width() < box.Height() {
		axis = 1
	}
	nl := len(items) * kl / k
	selectCentred(items, nl, axis)
	return append(kdMedianSplit(items[:nl], kl), kdMedianSplit(items[nl:], kr)...)
}

// selectCentred rearranges a so that its first k items are the k first
// under the before order on axis (Hoare quickselect, median-of-three
// pivot; keys are distinct, so duplicated centroids cannot make it
// quadratic).
func selectCentred(a []centred, k, axis int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x, p, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if p.before(&x, axis) {
			x, p = p, x
		}
		if z.before(&p, axis) {
			p = z
			if p.before(&x, axis) {
				p = x
			}
		}
		i, j := lo, hi
		for i <= j {
			for a[i].before(&p, axis) {
				i++
			}
			for p.before(&a[j], axis) {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// gridSplit cuts the centroid bounding box into a gx×gy grid with
// gx·gy ≥ k cells; cells beyond the k-th fold into the last shard.
// Groups keep the items' (ascending) order.
func gridSplit(items []centred, k int) [][]int {
	gx := int(math.Floor(math.Sqrt(float64(k))))
	if gx < 1 {
		gx = 1
	}
	gy := (k + gx - 1) / gx
	box := centreBox(items)
	groups := make([][]int, k)
	w, h := box.Width(), box.Height()
	for _, it := range items {
		c := geom.Pt(it.c[0], it.c[1])
		col, row := 0, 0
		if w > 0 {
			col = int((c.X - box.Min.X) / w * float64(gx))
			if col >= gx {
				col = gx - 1
			}
		}
		if h > 0 {
			row = int((c.Y - box.Min.Y) / h * float64(gy))
			if row >= gy {
				row = gy - 1
			}
		}
		cell := row*gx + col
		if cell >= k {
			cell = k - 1
		}
		groups[cell] = append(groups[cell], it.id)
	}
	return groups
}

// flatForDataset builds the SoA mirror the flat merge kernels run on:
// squares flatten under the planner's metric (L∞ natively, L1 on the
// unrotated centers — kernel.MetricL1 computes Manhattan distances
// directly, matching the planner's DistL1 arithmetic), discrete and disk
// datasets flatten their location/region rows. Dataset shapes with no
// uniform region family (mixed Points) return nil and the planner keeps
// the AoS merge.
func flatForDataset(ds *Dataset, m qmetric) *kernel.Flat {
	return flatForDatasetInto(nil, ds, m)
}

// flatForDatasetInto is flatForDataset reusing prev's slice capacity
// (matching kinds only); prev must not be read afterward.
func flatForDatasetInto(prev *kernel.Flat, ds *Dataset, m qmetric) *kernel.Flat {
	switch {
	case ds.Squares != nil:
		km := kernel.MetricLinf
		if m == metricL1 {
			km = kernel.MetricL1
		}
		return kernel.FromSquaresInto(prev, ds.Squares, km)
	case ds.Discrete != nil:
		return kernel.FromDiscreteInto(prev, ds.Discrete)
	case ds.Disks != nil:
		return kernel.FromDisksInto(prev, ds.Disks)
	default:
		return nil
	}
}

// Build implements Index: compute every item's region box and centroid
// once, partition, then build one backend instance and block index per
// non-empty shard in parallel (bounded by BuildWorkers). The boxes feed
// the partition, the shard bounds and the block indexes; the centroids
// feed the partition and the dataset-spacing quantum estimate.
func (sx *ShardedIndex) Build(ds *Dataset) error {
	n := ds.N()
	if n == 0 {
		return fmt.Errorf("sharded(%s): dataset has no uncertain points", sx.name)
	}
	sx.ds = ds
	sx.n = n
	sx.flat = flatForDataset(ds, sx.metric)
	sx.target = (n + sx.opt.Shards - 1) / sx.opt.Shards
	if sx.target < 1 {
		sx.target = 1
	}
	if sx.opt.InsertBuffer {
		sx.buf = &shard{bbox: geom.EmptyRect()}
		if sx.model == nil {
			// Resolve the flush-pricing model up front: flushThreshold is
			// also read under the query RLock (Explain), so the lazy
			// fallback must never fire there.
			sx.model = NewCostModel(nil)
		}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	boxes := itemBoxes(ds, all)
	items := centredItems(ds, all, boxes)
	xs, ys := make([]float64, n), make([]float64, n)
	for i, it := range items {
		xs[i], ys[i] = it.c[0], it.c[1]
	}
	sx.spacing, sx.spacingOK = spacingQuantum(xs, ys), true
	groups := partition(items, sx.opt.Shards, sx.opt.Split)
	sx.shards = make([]*shard, len(groups))
	// Each shard's region boxes, in id-list order: its bounds now, its
	// block index in the build goroutine.
	shardBoxes := make([][]geom.Rect, len(groups))
	for si, ids := range groups {
		sb := make([]geom.Rect, len(ids))
		for k, i := range ids {
			sb[k] = boxes[i]
		}
		s := &shard{ids: ids, bbox: unionAll(sb)}
		if len(ids) > 0 {
			s.sub = subset(ds, ids)
		}
		sx.shards[si] = s
		shardBoxes[si] = sb
	}

	var (
		wg   sync.WaitGroup
		sem  = make(chan struct{}, sx.opt.BuildWorkers)
		mu   sync.Mutex
		berr error
	)
	for si, s := range sx.shards {
		if s.sub == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ix, err := sx.factory(s.sub)
			if err != nil {
				mu.Lock()
				if berr == nil {
					berr = err
				}
				mu.Unlock()
				return
			}
			s.ix = ix
			s.blocks = sx.blocksFor(s.ids, shardBoxes[si])
		}()
	}
	wg.Wait()
	if berr != nil {
		return berr
	}
	if !sx.recomputeCaps() {
		return fmt.Errorf("sharded(%s): no shard could be built", sx.name)
	}
	return nil
}

// QuantumHint implements the adaptive cache-quantum hint: the finest
// hint among the built shards (each knows its own cell geometry),
// falling back to the dataset-spacing estimate (Build's, until the first
// mutation). Sampled when the engine is constructed; mutations that
// reshape the dataset faster than the hint tracks only affect sharing
// granularity, never correctness beyond the documented one-cell
// quantization error.
func (sx *ShardedIndex) QuantumHint() float64 {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	best := sx.spacing
	if !sx.spacingOK {
		best = autoQuantum(sx.ds)
	}
	sx.queryParts(func(s *shard) {
		if h, ok := s.ix.(quantumHinter); ok {
			if q := h.QuantumHint(); q > 0 && (best <= 0 || q < best) {
				best = q
			}
		}
	})
	return best
}

// shardQuantumHint is the cheap per-mutation refresh source for the
// adaptive cache quantum (Engine.maybeTightenQuantum): the finest hint
// among the built parts only. Each part re-derived its own hint from
// its sub-dataset when it was last rebuilt, so the mutated region's
// spacing is already reflected there and reading it is O(k) — unlike
// QuantumHint, which re-estimates over the whole dataset (O(n log n))
// and would dominate the very rebuild cost the mutation path amortizes.
// A cluster split exactly across a shard boundary can escape the
// per-shard estimates; the refresh then simply keeps the coarser value
// (no worse than the pre-refresh behavior).
func (sx *ShardedIndex) shardQuantumHint() float64 {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	best := 0.0
	sx.queryParts(func(s *shard) {
		if h, ok := s.ix.(quantumHinter); ok {
			if q := h.QuantumHint(); q > 0 && (best <= 0 || q < best) {
				best = q
			}
		}
	})
	return best
}

// Explain describes the sharded composition: the dataset-level plan (for
// planner-built fleets), then one line per shard with its size and the
// backend the factory chose for it — the per-shard planner's decisions
// are read directly off the built parts.
func (sx *ShardedIndex) Explain() string {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	var sb strings.Builder
	if sx.planNote != "" {
		sb.WriteString(sx.planNote)
	}
	fmt.Fprintf(&sb, "sharded(%s): %d shards, per-shard target %d\n", sx.name, len(sx.shards), sx.target)
	for si, s := range sx.shards {
		name := "(empty)"
		if s.ix != nil {
			name = s.ix.Name()
		}
		if t := s.temp(); t > 0 {
			// Adaptive fleets annotate each shard with its temperature
			// (EWMA visits per observation window); cold fleets print the
			// historical line so goldens stay stable.
			fmt.Fprintf(&sb, "  shard %d: %d items → %s (temp %.1f)\n", si, len(s.ids), name, t)
		} else {
			fmt.Fprintf(&sb, "  shard %d: %d items → %s\n", si, len(s.ids), name)
		}
		explainBlocks(&sb, s)
	}
	if sx.buf != nil {
		name := "(empty)"
		if sx.buf.ix != nil {
			name = sx.buf.ix.Name()
		}
		fmt.Fprintf(&sb, "  insert buffer: %d items (flush at %d) → %s\n",
			len(sx.buf.ids), sx.flushThreshold(), name)
		explainBlocks(&sb, sx.buf)
	}
	return sb.String()
}

// explainBlocks adds a part's block-index line: how many blocks the
// Lemma 2.1 scan chooses among inside the part. A one-block part is
// pruned only as a whole, like before block indexes, so it prints no
// line.
func explainBlocks(sb *strings.Builder, s *shard) {
	if nb := len(s.blocks.boxes); nb > 1 {
		fmt.Fprintf(sb, "    scan blocks: %d × %.1f rows\n", nb, float64(len(s.blocks.order))/float64(nb))
	}
}

// shardQueryStats snapshots the per-shard per-kind visit counters
// (Engine.Stats surfaces them as Stats.ShardQueries). Only the main
// shards are reported — the insert buffer is an implementation detail
// of the mutation path, not a plannable partition.
func (sx *ShardedIndex) shardQueryStats() []ShardKindCounts {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	out := make([]ShardKindCounts, len(sx.shards))
	for si, s := range sx.shards {
		out[si].Shard = si
		for k := range s.visits {
			out[si].Counts[k] = s.visits[k].Load()
			out[si].Rows[k] = s.rows[k].Load()
		}
	}
	return out
}

// shardTemps snapshots the per-shard temperatures (EWMA visits per
// observation window, summed over kinds) in shard order.
func (sx *ShardedIndex) shardTemps() []float64 {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	out := make([]float64, len(sx.shards))
	for si, s := range sx.shards {
		out[si] = s.temp()
	}
	return out
}

// recomputeCaps refreshes the capability intersection over the built
// shards, reporting whether at least one shard is built. The dynamic
// layer calls it after every mutation; for named backends the result
// is additionally clamped to the configured backend's capability set on
// the live dataset.
func (sx *ShardedIndex) recomputeCaps() bool {
	sx.caps = allKindCaps()
	built := 0
	for _, s := range sx.shards {
		if s.ix != nil {
			sx.caps &= s.ix.Capabilities()
			built++
		}
	}
	if sx.buf != nil && sx.buf.ix != nil {
		sx.caps &= sx.buf.ix.Capabilities()
		built++
	}
	if built == 0 {
		sx.caps = 0
	}
	if sx.backend != "" {
		sx.caps &= datasetCaps(sx.backend, sx.ds)
	}
	return built > 0
}
