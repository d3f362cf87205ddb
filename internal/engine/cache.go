package engine

import (
	"container/list"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"unn/internal/geom"
)

// query kinds for cache keys.
const (
	kindNonzero uint8 = iota
	kindProbs
	kindExpected
	// kindNonzeroCell keys an NN≠0 answer by the exact arrangement cell
	// containing the query (diagram backends; see diagramIndex.cellID):
	// the located cell id goes in x, y and eps stay zero. Same-cell
	// queries share one entry regardless of the grid quantum, and two
	// queries across a cell boundary can never alias.
	kindNonzeroCell
	// kindTopK keys top-k most-likely-NN answers; k participates in the
	// key, so the same query point at different k never shares a cell.
	kindTopK
)

// quantumHinter is the optional interface a built index implements to
// suggest a cache quantum: the minimum spatial extent over which its
// answer can be assumed constant (the exact structures are piecewise
// constant on their diagram cells). The engine consults it when
// Options.CacheQuantum < 0 (adaptive).
type quantumHinter interface {
	QuantumHint() float64
}

// autoQuantum estimates a cache quantum from the dataset alone: the
// answer cells of every structure here are carved by the uncertainty
// regions, so their extent tracks the spacing between region centroids.
// The estimate is a robust minimum (robustMin over the adjacent
// spacings along x and y, halved) — the literal minimum degenerates to
// slivers under near-duplicate points and would disable sharing
// entirely.
// Backends with real cell geometry (the V≠0 diagram) override this with
// measured cell extents via quantumHinter.
func autoQuantum(ds *Dataset) float64 {
	n := ds.N()
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		c := centroid(ds, i)
		xs[i], ys[i] = c.X, c.Y
	}
	return spacingQuantum(xs, ys)
}

// spacingQuantum is autoQuantum over the centroid coordinates xs, ys
// (destructive: sorts both).
func spacingQuantum(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	g := min(robustMinGap(xs), robustMinGap(ys))
	if math.IsInf(g, 1) || g <= 0 {
		return 0
	}
	return g / 2
}

// robustMinGap returns the robust-minimum positive gap between
// consecutive sorted values, +Inf when every value coincides.
func robustMinGap(vs []float64) float64 {
	sort.Float64s(vs)
	gaps := vs[:0]
	for i := 1; i < len(vs); i++ {
		if d := vs[i] - vs[i-1]; d > 0 {
			gaps = append(gaps, d)
		}
	}
	return robustMin(gaps)
}

// robustMin is the robust minimum of a sample of non-NaN values: the
// 10th-percentile value, but never the literal smallest when a second
// value exists — one near-degenerate sliver (two almost-coincident
// centroids, a hairline diagram slab) must not collapse the estimate.
// +Inf on an empty sample. Destructive (reorders vs).
func robustMin(vs []float64) float64 {
	if len(vs) == 0 {
		return math.Inf(1)
	}
	i := len(vs) / 10
	if i == 0 && len(vs) > 1 {
		i = 1
	}
	return nthSmallest(vs, i)
}

// nthSmallest returns the value a sort of vs (no NaNs) would put at
// index i, reordering vs: Hoare quickselect with a median-of-three
// pivot, like selectNth (blocks.go). An order statistic is one value,
// so the result is bit-identical to sorting and indexing.
func nthSmallest(vs []float64, i int) float64 {
	lo, hi := 0, len(vs)-1
	for lo < hi {
		x, y, z := vs[lo], vs[lo+(hi-lo)/2], vs[hi]
		p := max(min(x, y), min(max(x, y), z))
		a, b := lo, hi
		for a <= b {
			for vs[a] < p {
				a++
			}
			for vs[b] > p {
				b--
			}
			if a <= b {
				vs[a], vs[b] = vs[b], vs[a]
				a++
				b--
			}
		}
		switch {
		case i <= b:
			hi = b
		case i >= a:
			lo = a
		default:
			return vs[i]
		}
	}
	return vs[i]
}

// cacheKey identifies one answer: query kind, the quantized query
// point, and the per-kind request knobs (the accuracy eps for
// probability queries, k for top-k queries). Kinds that ignore a knob
// key it as zero (see cache.key), so equivalent requests share a cell
// and requests of distinct kinds or distinct k never do.
type cacheKey struct {
	kind uint8
	x, y uint64
	eps  uint64
	k    uint64
}

// cache is a striped LRU answer cache keyed by quantized query point.
// Keys hash to one of GOMAXPROCS independent stripes, each with its own
// mutex, LRU list and hit/miss counters, so concurrent batch workers do
// not serialize on one lock. Occupancy is bounded globally by an atomic
// counter: nothing is evicted before the total reaches the configured
// capacity, and over-capacity puts evict one LRU tail from a
// round-robin scan of the stripes — a hot stripe may hold most of the
// capacity, and never thrashes while other stripes sit idle.
//
// With quantum > 0 the plane is snapped to a grid of that step, so
// nearby queries share an answer — the engine-level analogue of the
// diagrams' cell-level answer sharing (every exact structure is
// piecewise constant, so a fine quantum trades a bounded spatial error
// for hit rate). With quantum = 0 keys are the exact float bit patterns.
type cache struct {
	// quantum holds the grid step as float64 bits: mutation epochs may
	// tighten the adaptive quantum (Engine.maybeTightenQuantum) while
	// queries quantize keys concurrently, so reads and writes are
	// atomic. The tighten always pairs with an invalidate, so entries
	// keyed under two different quanta never coexist.
	quantum  atomic.Uint64
	capacity int64
	total    atomic.Int64
	clock    atomic.Int64 // rotates the eviction scan start
	// gen is the invalidation generation: a mutation bumps it before
	// clearing the stripes, and puts record the generation read before
	// their answer was computed — a put whose generation is stale is
	// dropped, so an in-flight query can never re-install a
	// pre-mutation answer after the flush.
	gen     atomic.Uint64
	stripes []*cacheStripe
}

type cacheStripe struct {
	mu     sync.Mutex
	ll     *list.List // front = most recent
	items  map[cacheKey]*list.Element
	hits   uint64
	misses uint64
}

type cacheEntry struct {
	key cacheKey
	val any
}

func newCache(capacity int, quantum float64) *cache {
	n := runtime.GOMAXPROCS(0)
	if n > capacity {
		n = capacity
	}
	if n < 1 {
		n = 1
	}
	c := &cache{capacity: int64(capacity), stripes: make([]*cacheStripe, n)}
	c.quantum.Store(math.Float64bits(quantum))
	for i := range c.stripes {
		c.stripes[i] = &cacheStripe{
			ll:    list.New(),
			items: make(map[cacheKey]*list.Element),
		}
	}
	return c
}

// setQuantum retunes the grid step (the adaptive-quantum refresh on
// mutation epochs); callers must invalidate so old-grid keys never mix
// with new-grid ones.
func (c *cache) setQuantum(q float64) { c.quantum.Store(math.Float64bits(q)) }

func (c *cache) quantize(v float64) uint64 {
	if q := math.Float64frombits(c.quantum.Load()); q > 0 {
		return quantizeCell(v, q)
	}
	return math.Float64bits(v)
}

// quantizeCell snaps v to its grid cell index at step q, saturating at
// the int64 range. The saturation matters: for coordinates beyond
// ±2⁶³·q the float→int conversion is implementation-specific in Go
// (spec: "behavior is implementation-specific" for out-of-range
// values), so without the clamp the same query point could produce
// different cache keys on different architectures — or alias a finite
// cell. Saturated cells collapse the far tails onto two sentinel cells,
// which only coarsens sharing out there, never correctness of the keys.
func quantizeCell(v, q float64) uint64 {
	f := math.Floor(v / q)
	const lim = 1 << 63 // 2⁶³, exactly representable as a float64
	switch {
	case !(f > -lim): // f ≤ −2⁶³, and NaN (0/0-shaped inputs)
		return 1 << 63 // the bit pattern of math.MinInt64
	case f >= lim: // 2⁶³−1 rounds up to 2⁶³ in float64, so clamp at ≥
		return 1<<63 - 1 // math.MaxInt64
	}
	return uint64(int64(f))
}

// key is the one shared cache-key builder: every query path funnels its
// (kind, point, eps, k) through here so canonicalization is uniform.
func (c *cache) key(kind uint8, q geom.Point, eps float64, k int) cacheKey {
	// Every eps ≤ 0 means "backend default" (see Index.QueryProbs), so
	// all of them share one canonical key — raw bit patterns would give
	// eps = 0 and eps = -1 separate entries for the same answer. Kinds
	// that ignore eps or k pass them as zero.
	if eps <= 0 {
		eps = 0
	}
	if k < 0 {
		k = 0
	}
	return cacheKey{
		kind: kind,
		x:    c.quantize(q.X),
		y:    c.quantize(q.Y),
		eps:  math.Float64bits(eps),
		k:    uint64(k),
	}
}

// stripe hashes k to its stripe (splitmix64-style mixing).
func (c *cache) stripe(k cacheKey) *cacheStripe {
	h := k.x*0x9e3779b97f4a7c15 ^ k.y*0xbf58476d1ce4e5b9 ^
		k.eps*0x94d049bb133111eb ^ k.k*0xd6e8feb86659fd93 ^ uint64(k.kind)
	h ^= h >> 31
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return c.stripes[h%uint64(len(c.stripes))]
}

func (c *cache) get(kind uint8, q geom.Point, eps float64, k int) (any, bool) {
	return c.getKey(c.key(kind, q, eps, k))
}

// getKey looks up a pre-built key (the cell-identity path builds keys
// without a query point).
func (c *cache) getKey(k cacheKey) (any, bool) {
	s := c.stripe(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// generation snapshots the invalidation generation; callers read it
// before computing an answer and hand it back to put.
func (c *cache) generation() uint64 { return c.gen.Load() }

// invalidate flushes every entry and advances the generation. The bump
// happens first: any put that read the old generation is dropped, and a
// put racing the stripe sweep either lands before the sweep's lock
// (cleared) or re-checks the generation under its own lock (dropped).
func (c *cache) invalidate() {
	c.gen.Add(1)
	for _, s := range c.stripes {
		s.mu.Lock()
		n := s.ll.Len()
		s.ll.Init()
		s.items = make(map[cacheKey]*list.Element)
		s.mu.Unlock()
		c.total.Add(int64(-n))
	}
}

func (c *cache) put(kind uint8, q geom.Point, eps float64, k int, val any, gen uint64) {
	c.putKey(c.key(kind, q, eps, k), val, gen)
}

// putKey installs val under a pre-built key.
func (c *cache) putKey(k cacheKey, val any, gen uint64) {
	s := c.stripe(k)
	s.mu.Lock()
	if gen != c.gen.Load() {
		// The answer predates an invalidation; caching it would resurrect
		// a stale entry.
		s.mu.Unlock()
		return
	}
	if el, ok := s.items[k]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[k] = s.ll.PushFront(&cacheEntry{key: k, val: val})
	s.mu.Unlock()
	// Evict only while the cache as a whole is over capacity. Concurrent
	// over-capacity puts may each evict one entry (or skip, see
	// evictOne), so occupancy stays within the capacity plus or minus
	// the number of in-flight puts.
	if c.total.Add(1) > c.capacity {
		c.evictOne()
	}
}

// evictOne removes one LRU tail, scanning the stripes round-robin from a
// rotating start so eviction pressure spreads across the cache instead
// of pinning stripe quotas at whatever distribution first filled it.
// Singleton stripes are never victims — any goroutine's fresh insert may
// be the lone entry of an under-filled stripe, and evicting it would
// make that key uncacheable. A suitable victim always exists when the
// cache is over capacity and counts are quiescent (stripes ≤ capacity,
// so by pigeonhole some stripe holds ≥ 2 entries); if a concurrent
// racer drains every candidate mid-scan, the eviction is skipped and the
// next over-capacity put settles the bound (transient overshoot is at
// most the number of concurrent puts).
func (c *cache) evictOne() {
	n := len(c.stripes)
	start := int(c.clock.Add(1) % int64(n))
	for i := 0; i < n; i++ {
		st := c.stripes[(start+i)%n]
		st.mu.Lock()
		if st.ll.Len() > 1 {
			oldest := st.ll.Back()
			st.ll.Remove(oldest)
			delete(st.items, oldest.Value.(*cacheEntry).key)
			st.mu.Unlock()
			c.total.Add(-1)
			return
		}
		st.mu.Unlock()
	}
}

// stats sums the hit/miss counters across stripes.
func (c *cache) stats() (hits, misses uint64) {
	for _, s := range c.stripes {
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// len returns the total number of cached entries (tests/diagnostics).
func (c *cache) len() int {
	n := 0
	for _, s := range c.stripes {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
