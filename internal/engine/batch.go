package engine

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"unn/internal/geom"
	"unn/internal/quantify"
)

// Options tunes an Engine.
type Options struct {
	// Workers is the batch worker-pool size: the unique cache misses of a
	// Batch* call (duplicates and hits compute nothing) run across up to
	// this many goroutines. Default runtime.NumCPU(); 1 forces sequential
	// execution.
	Workers int
	// CacheSize is the capacity (entries) of the striped LRU answer
	// cache; 0 disables caching. The bound is global — entries are never
	// evicted while the cache holds fewer than CacheSize, regardless of
	// how keys distribute over the stripes.
	CacheSize int
	// CacheQuantum is the grid step used to quantize query points into
	// cache keys: queries within the same quantum cell share an answer.
	// Default 0: keys are the exact float bit patterns, so only repeated
	// identical queries hit. A negative value selects the adaptive
	// quantum: the built index's own cell-extent hint (the V≠0 diagram
	// reports a robust minimum of its slab widths, sharded and composite
	// indexes the finest hint of their parts, everything else the
	// dataset's centroid-spacing estimate), so answer sharing tracks the
	// granularity at which the answer actually changes instead of a
	// hand-tuned knob.
	CacheQuantum float64
	// ServeBuffer is the capacity of the answer channel returned by
	// Serve — the backpressure window of the stream. Default 2×Workers.
	ServeBuffer int
	// AdaptiveReplan enables the continuous adaptive replanning loop
	// (adaptive.go) when the wrapped index is a planner-built sharded
	// fleet: the engine windows its per-kind latency counters into
	// workload profiles, detects drift from the installed plan, and
	// replans each shard with its own observed mix off the query path.
	// nil disables the loop (the plan stays frozen); a pointer to the
	// zero value enables it with defaults. Ignored for indexes the loop
	// cannot steer (unsharded, or sharded without stored planner state).
	AdaptiveReplan *AdaptiveOptions
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	return o
}

// Engine executes queries against one built Index: single queries with
// optional LRU answer caching, and batches fanned across a worker pool
// with deterministic (input-order) results. All methods are safe for
// concurrent use.
//
// Returned slices may be shared with the answer cache (and with other
// callers that hit the same cache entry); treat them as read-only.
type Engine struct {
	ix    Index
	opt   Options
	cache *cache
	// quantum is the effective cache quantum (float64 bits; resolved
	// from the hint when adaptive). It is atomic because mutation epochs
	// tighten it concurrently with queries reading it (see
	// maybeTightenQuantum in dynamic.go).
	quantum  atomic.Uint64
	adaptive bool // Options.CacheQuantum was negative: track the hint
	// appender is the backend's allocation-free NN≠0 path (nil when the
	// backend has none); cells its exact cell identity for cache keys
	// (diagram backends). Both are resolved once at construction by
	// unwrapping the quantum-hint wrapper.
	appender nonzeroAppender
	cells    cellIdentifier
	stats    engineStats
	// obsMu guards obs, the delta-window observer behind ObserveInto:
	// each call folds only the samples recorded since the previous one,
	// so repeated calls never re-count.
	obsMu sync.Mutex
	obs   Observer
	// adapt is the adaptive replanning controller (nil unless
	// Options.AdaptiveReplan selected it and the index supports it).
	adapt *adaptivePlanner
}

// cellIdentifier is the optional backend interface behind the
// cell-identity cache keys: a backend whose NN≠0 answer is piecewise
// constant on known cells (the V≠0 diagram) reports the id of the cell
// containing q, and the engine keys the cache by that id instead of the
// quantized point.
type cellIdentifier interface {
	cellID(q geom.Point) (uint64, bool)
}

// engineStats is the per-query-kind latency record: every single query
// (and every Serve completion) adds its wall time to its kind's
// counters, indexed by registry slot, and every batch adds its slots
// and its total wall time once. The counters are the measured
// side of the cost model — Stats exposes them and ObserveInto folds
// them back into a CostModel.
type engineStats struct {
	count [numKinds]atomic.Uint64
	ns    [numKinds]atomic.Uint64
	// Batch traffic: every Batch* call counts once (batches) with its
	// slot count (batchQueries) and the unique cache misses it computed
	// (computed; duplicates and hits are the rest).
	batches      atomic.Uint64
	batchQueries atomic.Uint64
	computed     atomic.Uint64
}

func (s *engineStats) record(kind Capability, d time.Duration) {
	i := kindSlot(kind)
	if i < 0 {
		return
	}
	s.count[i].Add(1)
	s.ns[i].Add(uint64(d.Nanoseconds()))
}

// countBatch records one Batch* call of n queries.
func (s *engineStats) countBatch(n int) {
	s.batches.Add(1)
	s.batchQueries.Add(uint64(n))
}

// recordBatchKind attributes a batch's wall time to its kind: n
// queries answered in d total, so the per-kind mean stays a per-query
// latency comparable with the scalar path's.
func (s *engineStats) recordBatchKind(kind Capability, n int, d time.Duration) {
	i := kindSlot(kind)
	if i < 0 {
		return
	}
	s.count[i].Add(uint64(n))
	s.ns[i].Add(uint64(d.Nanoseconds()))
}

// KindStats is the latency record of one query kind.
type KindStats struct {
	Count   uint64
	TotalNs uint64
}

// MeanNs returns the mean per-query latency (0 when no queries ran).
func (k KindStats) MeanNs() float64 {
	if k.Count == 0 {
		return 0
	}
	return float64(k.TotalNs) / float64(k.Count)
}

// ShardKindCounts is the per-shard slice of the query counters: how many
// queries of each registered kind (indexed by registry slot, see
// Stats.Kind) actually scanned the shard — merges that prune a shard by
// its lower bound do not count it. The counters are the groundwork for
// workload-aware shard planning (hot shards buying expensive structures
// cold shards skip); they reset when rebalancing replaces the shard.
type ShardKindCounts struct {
	// Shard is the position in the fleet's current shard order.
	Shard int
	// Counts is indexed by registry slot (kindSlot order: the same order
	// Stats.Kinds uses).
	Counts [NumKinds]uint64
	// Rows is indexed like Counts: the rows the Lemma 2.1 scan evaluated
	// in the shard. Rows/Counts is the mean scan length per visit, which
	// block pruning keeps far below the shard size. Only the scan's
	// kinds (NN≠0, and discrete π and top-k) count rows.
	Rows [NumKinds]uint64
}

// Stats is a snapshot of an Engine's counters: per-kind query latencies
// (one slot per registered kind, in registry order — see Kind), cache
// traffic, the effective cache quantum, and — for sharded backends —
// the per-shard per-kind query counters.
type Stats struct {
	Kinds        [NumKinds]KindStats
	CacheHits    uint64
	CacheMisses  uint64
	CacheQuantum float64
	// Batches / BatchQueries count Batch* calls and their total slots
	// (MeanBatchSize is their ratio).
	Batches      uint64
	BatchQueries uint64
	// TileLanes counts the unique cache misses the batch executor
	// computed: TileLanes/BatchQueries is the share of batch slots that
	// reached a backend (in-batch duplicates and cache hits did not).
	TileLanes uint64
	// ShardQueries is nil for unsharded backends.
	ShardQueries []ShardKindCounts
	// ShardTemps is the per-shard EWMA temperature (visits per
	// observation window, summed over kinds) maintained by the adaptive
	// replanning loop — hot shards justify expensive structures, cold
	// shards demote to brute. nil unless the engine runs adaptive.
	ShardTemps []float64
	// Replans counts completed adaptive plan swaps (automatic and
	// manual); LastReplanReason is the drift reason of the most recent
	// one. Zero/empty unless the engine runs adaptive.
	Replans          uint64
	LastReplanReason string
}

// MeanBatchSize returns the mean number of queries per Batch* call
// (0 when no batches were served).
func (s Stats) MeanBatchSize() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchQueries) / float64(s.Batches)
}

// TileOccupancy always returns 0.
//
// Deprecated: batches do not run in tiles of queries, so there is no
// tile occupancy to report.
func (s Stats) TileOccupancy() float64 { return 0 }

// Kind returns the latency record of one registered query kind (the
// zero record for a value that is not a registered kind).
func (s Stats) Kind(kind Capability) KindStats {
	if i := kindSlot(kind); i >= 0 {
		return s.Kinds[i]
	}
	return KindStats{}
}

// NewEngine wraps a built Index.
func NewEngine(ix Index, opt Options) *Engine {
	opt = opt.withDefaults()
	e := &Engine{ix: ix, opt: opt}
	q := opt.CacheQuantum
	if q < 0 {
		e.adaptive = true
		q = 0
		if h, ok := ix.(quantumHinter); ok {
			if hq := h.QuantumHint(); hq > 0 {
				q = hq
			}
		}
	}
	e.quantum.Store(math.Float64bits(q))
	if opt.CacheSize > 0 {
		e.cache = newCache(opt.CacheSize, q)
	}
	ux := ix
	if h, ok := ux.(hintedIndex); ok {
		ux = h.Index
	}
	if na, ok := ux.(nonzeroAppender); ok {
		e.appender = na
	}
	if ci, ok := ux.(cellIdentifier); ok {
		e.cells = ci
	}
	if opt.AdaptiveReplan != nil {
		if sx, ok := ux.(*ShardedIndex); ok && sx.popt != nil {
			e.adapt = newAdaptivePlanner(e, sx, *opt.AdaptiveReplan)
		}
	}
	return e
}

// Index returns the wrapped backend.
func (e *Engine) Index() Index { return e.ix }

// Backend returns the wrapped backend's name.
func (e *Engine) Backend() Backend { return Backend(e.ix.Name()) }

// Capabilities returns the wrapped backend's capability set.
func (e *Engine) Capabilities() Capability { return e.ix.Capabilities() }

// Workers returns the effective worker-pool size.
func (e *Engine) Workers() int { return e.opt.Workers }

// CacheStats returns (hits, misses) since construction; zeros when the
// cache is disabled.
func (e *Engine) CacheStats() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.stats()
}

// CacheQuantum returns the effective cache quantum: the configured
// knob, or the resolved adaptive hint when Options.CacheQuantum was
// negative — which mutation epochs may tighten as the dataset
// densifies (see maybeTightenQuantum).
func (e *Engine) CacheQuantum() float64 { return math.Float64frombits(e.quantum.Load()) }

// Stats snapshots the engine's per-query-kind latency counters and
// cache traffic. Latencies include cache hits — they are the serving
// latencies a client observes, which is exactly what the planner's cost
// model wants to track.
func (e *Engine) Stats() Stats {
	s := Stats{CacheQuantum: e.CacheQuantum()}
	for i := range s.Kinds {
		s.Kinds[i] = KindStats{Count: e.stats.count[i].Load(), TotalNs: e.stats.ns[i].Load()}
	}
	s.CacheHits, s.CacheMisses = e.CacheStats()
	s.Batches = e.stats.batches.Load()
	s.BatchQueries = e.stats.batchQueries.Load()
	s.TileLanes = e.stats.computed.Load()
	ix := e.ix
	if h, ok := ix.(hintedIndex); ok {
		ix = h.Index
	}
	if sq, ok := ix.(interface{ shardQueryStats() []ShardKindCounts }); ok {
		s.ShardQueries = sq.shardQueryStats()
	}
	if e.adapt != nil {
		s.ShardTemps = e.adapt.shardTemps()
		s.Replans, s.LastReplanReason = e.adapt.replanStats()
	}
	return s
}

// ObserveInto folds the measured per-kind latencies back into a cost
// model — the feedback loop from serving traffic to planning. Each call
// consumes one delta window (cost.Observer): only the samples recorded
// since the previous call contribute, so calling it on a schedule never
// folds the same cumulative counters in twice. The backend attributed
// per kind is read from the wrapped index (composite indexes report
// their per-kind part); kinds with no new queries, or whose serving
// backend is not a plain named backend (e.g. a sharded fleet), are
// skipped.
func (e *Engine) ObserveInto(model *CostModel) {
	n := 0
	if l, ok := e.ix.(interface{ Len() int }); ok {
		n = l.Len()
	}
	if n <= 0 {
		return
	}
	st := e.Stats()
	e.obsMu.Lock()
	win := e.obs.Window(st.Kinds)
	e.obsMu.Unlock()
	for i := range kindTable {
		ks := win[i]
		if ks.Count == 0 {
			continue
		}
		b, ok := e.kindBackend(kindTable[i].cap)
		if !ok {
			continue
		}
		model.Observe(b, kindTable[i].op, n, ks.MeanNs())
	}
}

// kindBackend resolves which named backend serves kind: composites
// (planned, auto) report their part, plain adapters their own name.
func (e *Engine) kindBackend(kind Capability) (Backend, bool) {
	ix := e.ix
	if h, ok := ix.(hintedIndex); ok {
		ix = h.Index
	}
	if kb, ok := ix.(interface {
		kindBackend(Capability) (Backend, bool)
	}); ok {
		return kb.kindBackend(kind)
	}
	name := Backend(ix.Name())
	for _, b := range Backends() {
		if b == name {
			return b, ix.Capabilities().Has(kind)
		}
	}
	return "", false
}

// Explain describes how this engine answers each query kind: the
// planner's decision (with cost estimates) for planned indexes, Auto's
// rule for its composite, shard assignments for sharded fleets, and
// a capability summary for plain backends. Engines running the adaptive
// replanning loop append its state (window, replan count, last reason,
// shard temperatures).
func (e *Engine) Explain() string {
	return e.explainIndex() + e.explainAdaptive()
}

func (e *Engine) explainIndex() string {
	if ex, ok := e.ix.(interface{ Explain() string }); ok {
		return ex.Explain()
	}
	ix := e.ix
	if h, ok := ix.(hintedIndex); ok {
		if ex, ok := h.Index.(interface{ Explain() string }); ok {
			return ex.Explain()
		}
		ix = h.Index
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "backend %s: all kinds served directly\n", ix.Name())
	for _, kind := range queryKinds() {
		if ix.Capabilities().Has(kind) {
			fmt.Fprintf(&sb, "  %-8s → %s\n", kind, ix.Name())
		}
	}
	return sb.String()
}

func (e *Engine) explainAdaptive() string {
	if e.adapt == nil {
		return ""
	}
	return e.adapt.explain()
}

// check returns ErrUnsupported early so callers get a uniform
// capability error even for backends whose support depends on the
// dataset.
func (e *Engine) check(c Capability) error {
	if !e.ix.Capabilities().Has(c) {
		return fmt.Errorf("%w: backend %s lacks %s", ErrUnsupported, e.ix.Name(), c)
	}
	return nil
}

// nonzeroKey builds the cache key of an NN≠0 answer: the exact cell
// identity when the backend locates one (two same-cell queries share an
// entry, two across a cell boundary never can), else the quantized
// query point.
func (e *Engine) nonzeroKey(q geom.Point) cacheKey {
	if e.cells != nil {
		if id, ok := e.cells.cellID(q); ok {
			return cacheKey{kind: kindNonzeroCell, x: id}
		}
	}
	return e.cache.key(kindNonzero, q, 0, 0)
}

// requestKey builds the cache key of a registered-kind request through
// the one shared builder, canonicalizing the knobs the kind ignores to
// zero. NN≠0 keeps its cell-identity upgrade (see nonzeroKey).
func (e *Engine) requestKey(spec *kindSpec, req Request) cacheKey {
	if spec.cap == CapNonzero {
		return e.nonzeroKey(req.Q)
	}
	eps, k := 0.0, 0
	if spec.usesEps {
		eps = req.Eps
	}
	if spec.usesK {
		k = req.K
	}
	return e.cache.key(spec.cacheKind, req.Q, eps, k)
}

// Query is the unified typed entry point: it dispatches req to its
// registered kind through the cache and the per-kind latency counters.
// The typed wrappers (QueryNonzero, QueryProbs, QueryExpected,
// QueryTopK) all funnel through here, so every registered kind gets the
// same caching, stats and capability-check behavior for free.
func (e *Engine) Query(req Request) (Result, error) {
	spec := kindByCap(req.Kind)
	if spec == nil {
		return Result{}, fmt.Errorf("engine: request kind %s is not a registered query kind", req.Kind)
	}
	res := Result{Kind: req.Kind}
	v, err := e.queryValue(spec, req)
	if err != nil {
		return Result{}, err
	}
	spec.fill(&res, v)
	return res, nil
}

// queryValue is the shared body of Query and the typed wrappers: the
// capability check, the latency counter, the canonical cache probe, and
// the kind's run hook. It returns the answer in its boxed (cacheable)
// form so the typed wrappers can assert it back directly instead of
// routing through a Result — that keeps their hot path at cache-layer
// alloc parity with the pre-registry per-kind methods.
func (e *Engine) queryValue(spec *kindSpec, req Request) (any, error) {
	if err := e.check(spec.cap); err != nil {
		return nil, err
	}
	if err := checkQuery(req.Q); err != nil {
		return nil, err
	}
	if spec.usesEps {
		if err := checkEps(req.Eps); err != nil {
			return nil, err
		}
	}
	defer func(t0 time.Time) { e.stats.record(spec.cap, time.Since(t0)); e.noteQueries(1) }(time.Now())
	var gen uint64
	var key cacheKey
	if e.cache != nil {
		gen = e.cache.generation()
		key = e.requestKey(spec, req)
		if v, ok := e.cache.getKey(key); ok {
			return v, nil
		}
	}
	v, err := spec.run(e.ix, req)
	if err != nil {
		return nil, err
	}
	if e.cache != nil {
		e.cache.putKey(key, v, gen)
	}
	return v, nil
}

// QueryNonzero answers a single NN≠0 query through the cache.
func (e *Engine) QueryNonzero(q geom.Point) ([]int, error) {
	v, err := e.queryValue(&kindTable[slotNonzero], Request{Kind: CapNonzero, Q: q})
	if err != nil {
		return nil, err
	}
	return v.([]int), nil
}

// QueryNonzeroInto answers a single NN≠0 query by appending into dst —
// the zero-allocation entry point: with caching disabled and a backend
// that implements the appending contract (brute, the two-stage family,
// and the sharded planner over them), a steady-state query performs no
// heap allocation beyond growing dst once to its high-water mark. Cache
// hits append the shared entry (the entry itself stays read-only);
// misses are answered into dst directly and are NOT installed in the
// cache — the cache stores owned slices, and taking ownership would
// force a copy per miss, defeating the point of the Into path. Callers
// mixing caching with Into should expect only hit-path sharing.
func (e *Engine) QueryNonzeroInto(q geom.Point, dst []int) ([]int, error) {
	if err := e.check(CapNonzero); err != nil {
		return dst, err
	}
	if err := checkQuery(q); err != nil {
		return dst, err
	}
	defer func(t0 time.Time) { e.stats.record(CapNonzero, time.Since(t0)); e.noteQueries(1) }(time.Now())
	if e.cache != nil {
		if v, ok := e.cache.getKey(e.nonzeroKey(q)); ok {
			return append(dst, v.([]int)...), nil
		}
	}
	return e.appendNonzero(q, dst)
}

// appendNonzero appends q's NN≠0 answer to dst on the raw path (no
// cache, no stats): the backend's allocation-free appender when it has
// one.
func (e *Engine) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	if e.appender != nil {
		return e.appender.appendNonzero(q, dst)
	}
	out, err := e.ix.QueryNonzero(q)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

// QueryProbs answers a single quantification query through the cache.
// eps ≤ 0 selects the backend's build-time default; a NaN or ±Inf eps
// fails with ErrInvalidInput.
func (e *Engine) QueryProbs(q geom.Point, eps float64) ([]quantify.Prob, error) {
	v, err := e.queryValue(&kindTable[slotProbs], Request{Kind: CapProbs, Q: q, Eps: eps})
	if err != nil {
		return nil, err
	}
	return v.([]quantify.Prob), nil
}

// QueryExpected answers a single expected-distance NN query through the
// cache.
func (e *Engine) QueryExpected(q geom.Point) (int, float64, error) {
	v, err := e.queryValue(&kindTable[slotExpected], Request{Kind: CapExpected, Q: q})
	if err != nil {
		return -1, 0, err
	}
	ans := v.(ExpectedResult)
	return ans.I, ans.Dist, nil
}

// QueryTopK answers a single top-k most-likely-NN query through the
// cache: the k indices with the largest π_i(q), ranked by probability
// descending with index-ascending tie-break (fewer than k entries when
// fewer points have π > 0). eps ≤ 0 selects the backend's build-time
// default for the underlying π computation; a NaN or ±Inf eps fails with
// ErrInvalidInput.
func (e *Engine) QueryTopK(q geom.Point, k int, eps float64) ([]quantify.Prob, error) {
	v, err := e.queryValue(&kindTable[slotTopK], Request{Kind: CapTopK, Q: q, Eps: eps, K: k})
	if err != nil {
		return nil, err
	}
	return v.([]quantify.Prob), nil
}

// BatchNonzero answers a slice of NN≠0 queries; result i corresponds
// to qs[i] and is identical to QueryNonzero(qs[i]). Like every Batch*
// call it runs the one batch executor (batchexec.go): duplicate queries
// and cache hits compute nothing, and each unique miss runs the
// single-query path.
func (e *Engine) BatchNonzero(qs []geom.Point) ([][]int, error) {
	return batchValues[[]int](e, &kindTable[slotNonzero], Request{Kind: CapNonzero}, qs)
}

// BatchNonzeroInto answers a slice of NN≠0 queries reusing dst's slots
// — the batch analogue of QueryNonzeroInto: the result has exactly
// len(qs) slots (dst grows when shorter), slot i is truncated and
// reused for qs[i]'s answer, and in steady state (warmed slots, one
// worker, a backend with the appending contract) the call performs no
// heap allocation. Like QueryNonzeroInto, computed answers are not
// installed in the cache (hits are still served).
func (e *Engine) BatchNonzeroInto(qs []geom.Point, dst [][]int) ([][]int, error) {
	spec := &kindTable[slotNonzero]
	if err := e.validateBatch(spec, 0, qs); err != nil {
		return dst, err
	}
	if len(dst) < len(qs) {
		dst = append(dst, make([][]int, len(qs)-len(dst))...)
	}
	dst = dst[:len(qs)]
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	em := &bs.into
	*em = intoEmitter{batchCtx: batchCtx{e: e, spec: spec, req: Request{Kind: CapNonzero}, qs: qs, bs: bs}, out: dst}
	return dst, e.runBatch(&em.batchCtx, em)
}

// BatchProbs answers a slice of quantification queries; result i
// corresponds to qs[i] and is identical to QueryProbs(qs[i], eps). A
// NaN or ±Inf eps fails the whole batch with ErrInvalidInput.
func (e *Engine) BatchProbs(qs []geom.Point, eps float64) ([][]quantify.Prob, error) {
	return batchValues[[]quantify.Prob](e, &kindTable[slotProbs], Request{Kind: CapProbs, Eps: eps}, qs)
}

// BatchExpected answers a slice of expected-distance NN queries; result
// i corresponds to qs[i] and is identical to QueryExpected(qs[i]).
func (e *Engine) BatchExpected(qs []geom.Point) ([]ExpectedResult, error) {
	return batchValues[ExpectedResult](e, &kindTable[slotExpected], Request{Kind: CapExpected}, qs)
}

// BatchTopK answers a slice of top-k most-likely-NN queries; result i
// corresponds to qs[i] and is identical to QueryTopK(qs[i], k, eps). A
// NaN or ±Inf eps fails the whole batch with ErrInvalidInput.
func (e *Engine) BatchTopK(qs []geom.Point, k int, eps float64) ([][]quantify.Prob, error) {
	return batchValues[[]quantify.Prob](e, &kindTable[slotTopK], Request{Kind: CapTopK, Eps: eps, K: k}, qs)
}

// ExpectedResult is one expected-distance batch answer.
type ExpectedResult struct {
	I    int     // index of the expected-distance NN
	Dist float64 // its expected distance
}
