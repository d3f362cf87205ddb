// The batch executor: every Batch* entry point, whatever its query
// kind, runs one body (runBatch) in three phases:
//
//  1. Dedup ("in-batch singleflight"): every query is keyed by the same
//     cache key its single-query path would use (exact float bits when
//     the cache is off, so duplicate points still collapse), duplicates
//     alias their lowest-index representative, and representatives probe
//     the cache once. Only the remaining unique misses compute.
//  2. Compute: each miss runs the kind's raw single-query path (the
//     backend dispatch, or the NN≠0 appender for BatchNonzeroInto) across
//     the worker pool, and its answer lands in its input slot. The raw
//     path is the one the block-pruned Lemma 2.1 scan serves, so a batch
//     reads only the rows near each of its unique queries.
//  3. Alias copy: duplicates copy their representative's slot.
//
// Misses never go through queryValue: the batch records its stats once,
// so no query is counted twice. Everything on the workers ≤ 1 path of
// BatchNonzeroInto is allocation-free in steady state: pooled scratch,
// sort-based dedup (no maps), and a pooled emitter handed to the worker
// pool as an interface (no closures).
package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"unn/internal/geom"
)

// keyRef is one query's dedup key in compact form — the key's kind and
// point fields and the query's input index — so dedup sorts 24-byte
// refs. The key's eps and k are the same for every query of a batch
// (they come from the kind and the batch's knobs), so they are kept
// once, in the batch's template key. Batches hold fewer than 2^31
// queries (a []geom.Point that long is 32 GiB).
type keyRef struct {
	x, y uint64
	idx  int32
	kind uint8
}

// cmpKeyRef orders refs by key, then input index: each group of equal
// keys is contiguous with its lowest index first.
func cmpKeyRef(a, b keyRef) int {
	switch {
	case a.kind != b.kind:
		return int(a.kind) - int(b.kind)
	case a.x != b.x:
		return cmpU64(a.x, b.x)
	case a.y != b.y:
		return cmpU64(a.y, b.y)
	default:
		return int(a.idx) - int(b.idx)
	}
}

func cmpU64(a, b uint64) int {
	if a < b {
		return -1
	}
	return 1
}

// sameKey reports whether two refs carry the same dedup key.
func (r keyRef) sameKey(o keyRef) bool { return r.kind == o.kind && r.x == o.x && r.y == o.y }

// cacheKey expands r to the full key, taking eps and k from the batch's
// template key.
func (r keyRef) cacheKey(tmpl cacheKey) cacheKey {
	return cacheKey{kind: r.kind, x: r.x, y: r.y, eps: tmpl.eps, k: tmpl.k}
}

// batchScratch is the executor's pooled per-batch arena: the dedup
// tables and BatchNonzeroInto's emitter (a pointer to the field
// converts to the batchSink interface without allocating).
type batchScratch struct {
	refs  []keyRef
	alias []int      // alias[i] ≥ 0: input i copies representative alias[i]
	comp  []int      // input indices to compute, ascending
	keys  []cacheKey // comp's dedup keys
	into  intoEmitter
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch { return batchPool.Get().(*batchScratch) }

func putBatchScratch(bs *batchScratch) {
	bs.into = intoEmitter{} // drop the caller's slices before pooling
	batchPool.Put(bs)
}

// batchCtx is one Batch* call: the kind, its knobs (Eps, K; Q is set
// per query), the points, the leased scratch, and the cache generation
// read when the batch started (answers computed across a mutation are
// not installed).
type batchCtx struct {
	e    *Engine
	spec *kindSpec
	req  Request
	qs   []geom.Point
	bs   *batchScratch
	gen  uint64
}

// indexedTask is one unit of runIndexed's work. It is an interface, not
// a func, so the sequential path builds no closure.
type indexedTask interface {
	run(i int) error
}

// batchSink is one Batch* call's output. hit fills a representative's
// slot from a cached value, run computes the ci-th miss into its slot
// (concurrently for distinct ci), and alias copies a representative's
// slot into a duplicate's.
type batchSink interface {
	indexedTask
	hit(rep int, v any)
	alias(i, rep int)
}

// valueEmitter is the sink of the allocating Batch* entry points: slot
// i holds qs[i]'s answer in the kind's boxed type T, exactly as the
// kind's single-query path returns it. Hits and duplicates share the
// (read-only) value; computed answers are installed in the cache.
type valueEmitter[T any] struct {
	batchCtx
	out []T
}

func (em *valueEmitter[T]) hit(rep int, v any) { em.out[rep] = v.(T) }

func (em *valueEmitter[T]) alias(i, rep int) { em.out[i] = em.out[rep] }

func (em *valueEmitter[T]) run(ci int) error {
	qi := em.bs.comp[ci]
	req := em.req
	req.Q = em.qs[qi]
	v, err := em.spec.run(em.e.ix, req)
	if err != nil {
		return err
	}
	em.out[qi] = v.(T)
	if em.e.cache != nil {
		em.e.cache.putKey(em.bs.keys[ci], v, em.gen)
	}
	return nil
}

// intoEmitter is BatchNonzeroInto's sink: every slot is reused in place
// (hits and duplicates copy into it, misses append into it through the
// NN≠0 appender), and computed answers are not installed in the cache —
// the QueryNonzeroInto contract.
type intoEmitter struct {
	batchCtx
	out [][]int
}

func (em *intoEmitter) hit(rep int, v any) { em.out[rep] = append(em.out[rep][:0], v.([]int)...) }

func (em *intoEmitter) alias(i, rep int) { em.out[i] = append(em.out[i][:0], em.out[rep]...) }

func (em *intoEmitter) run(ci int) error {
	qi := em.bs.comp[ci]
	slot, err := em.e.appendNonzero(em.qs[qi], em.out[qi][:0])
	em.out[qi] = slot
	return err
}

// batchValues is the body of the allocating Batch* entry points: one
// answer of type T per query of kind spec, with the kind's knobs in
// req.
func batchValues[T any](e *Engine, spec *kindSpec, req Request, qs []geom.Point) ([]T, error) {
	if err := e.validateBatch(spec, req.Eps, qs); err != nil {
		return nil, err
	}
	bs := getBatchScratch()
	defer putBatchScratch(bs)
	em := &valueEmitter[T]{
		batchCtx: batchCtx{e: e, spec: spec, req: req, qs: qs, bs: bs},
		out:      make([]T, len(qs)),
	}
	if err := e.runBatch(&em.batchCtx, em); err != nil {
		return nil, err
	}
	return em.out, nil
}

// validateBatch rejects a batch before any work: a kind the backend
// lacks, a non-finite accuracy knob, or a non-finite point (reported at
// the lowest bad index). A valid batch is counted.
func (e *Engine) validateBatch(spec *kindSpec, eps float64, qs []geom.Point) error {
	if err := e.check(spec.cap); err != nil {
		return err
	}
	if spec.usesEps {
		if err := checkEps(eps); err != nil {
			return err
		}
	}
	if err := checkBatch(qs); err != nil {
		return err
	}
	e.stats.countBatch(len(qs))
	return nil
}

// runBatch is the one batch body (dedup → cache → compute → alias) for
// a validated batch. The error names the lowest failing input index.
func (e *Engine) runBatch(bc *batchCtx, sink batchSink) error {
	if len(bc.qs) == 0 {
		return nil
	}
	t0 := time.Now()
	if e.cache != nil {
		bc.gen = e.cache.generation()
	}
	bs := bc.bs
	e.dedup(bc, sink)
	fi, err := runIndexed(e.opt.Workers, len(bs.comp), sink)
	if err == nil {
		for i, r := range bs.alias {
			if r >= 0 {
				sink.alias(i, r)
			}
		}
	}
	e.stats.computed.Add(uint64(len(bs.comp)))
	e.stats.recordBatchKind(bc.spec.cap, len(bc.qs), time.Since(t0))
	e.noteQueries(len(bc.qs))
	if err != nil {
		return fmt.Errorf("engine: batch query %d: %w", bs.comp[fi], err)
	}
	return nil
}

// batchKey builds a query's dedup key: the cache key when caching is on
// (so batch dedup collapses exactly what the cache would share — same
// quantum cell, same cell identity), else the exact coordinate bits (so
// cache-off batches still collapse repeated points; the kind's knobs
// are the same for the whole batch).
func (e *Engine) batchKey(spec *kindSpec, req Request) cacheKey {
	if e.cache != nil {
		return e.requestKey(spec, req)
	}
	return cacheKey{kind: spec.cacheKind, x: math.Float64bits(req.Q.X), y: math.Float64bits(req.Q.Y)}
}

// dedup keys the batch (phase 1): duplicates alias their
// representative, representatives probe the cache once through sink,
// and the misses land in bs.comp/bs.keys ascending by input index.
func (e *Engine) dedup(bc *batchCtx, sink batchSink) {
	bs, qs := bc.bs, bc.qs
	req := bc.req
	var tmpl cacheKey
	refs := bs.refs[:0]
	for i, q := range qs {
		req.Q = q
		tmpl = e.batchKey(bc.spec, req)
		refs = append(refs, keyRef{x: tmpl.x, y: tmpl.y, idx: int32(i), kind: tmpl.kind})
	}
	slices.SortFunc(refs, cmpKeyRef)
	bs.refs = refs

	alias := bs.alias
	if cap(alias) < len(qs) {
		alias = make([]int, len(qs))
	}
	alias = alias[:len(qs)]
	for i := range alias {
		alias[i] = -1
	}
	// Duplicates alias their group's lowest index; a representative
	// that misses the cache marks its own slot -2-gs (gs: its group's
	// start in refs) for the ascending pass below.
	for gs := 0; gs < len(refs); {
		ge := gs + 1
		for ge < len(refs) && refs[ge].sameKey(refs[gs]) {
			ge++
		}
		rep := int(refs[gs].idx)
		cached := false
		if e.cache != nil {
			if v, ok := e.cache.getKey(refs[gs].cacheKey(tmpl)); ok {
				sink.hit(rep, v)
				cached = true
			}
		}
		if !cached {
			alias[rep] = -2 - gs
		}
		for j := gs + 1; j < ge; j++ {
			alias[refs[j].idx] = rep
		}
		gs = ge
	}
	// Misses compute in ascending input order, so the reported failure
	// is the lowest failing input index.
	comp := bs.comp[:0]
	keys := bs.keys[:0]
	for i, a := range alias {
		if a <= -2 {
			comp = append(comp, i)
			keys = append(keys, refs[-2-a].cacheKey(tmpl))
			alias[i] = -1
		}
	}
	bs.alias, bs.comp, bs.keys = alias, comp, keys
}

// runIndexed runs task.run(0..n-1) across up to workers goroutines and
// returns the position of the lowest failing call with its error (-1,
// nil when all succeed). Feeding is in order and stops once a failure
// is recorded, so every index below a failing fed index has also run
// and the recorded minimum is global, whatever the scheduling.
// Sequential, and closure-free, when workers ≤ 1.
func runIndexed(workers, n int, task indexedTask) (int, error) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := task.run(i); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	var (
		wg     sync.WaitGroup
		next   = make(chan int)
		mu     sync.Mutex
		errIdx = -1
		errVal error
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := task.run(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, errVal = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		if failed.Load() {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return errIdx, errVal
}
