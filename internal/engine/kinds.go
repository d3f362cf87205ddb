// The query-kind registry: one table driving every per-kind decision in
// the engine layer. Each registered kind carries its capability bit, its
// cost-model op (the planner term), its cache-key canonicalization
// (which request knobs participate in the key), its Stats slot (the
// table index), and its dispatch — so batch.go, serve.go, cache.go,
// cost.go, planner.go, plan.go and engine/snapshot.go iterate the
// registry instead of hardwiring kind lists.
//
// Adding a query kind is one entry here plus its backend
// implementations: append a kindSpec (new capability bit, new CostOp),
// grant the bit in the adapters' Capabilities and in datasetCaps
// (cost.go), and — when the kind needs a cross-shard merge smarter than
// per-part delegation — add its merge to plan.go. Everything else
// (stats, caching, Serve, Batch*, Explain, calibration, snapshot plan
// entries) picks the kind up from the table. DESIGN.md §10 walks
// through the QueryKindTopK registration as the worked example.
package engine

import (
	"fmt"
	"sort"

	"unn/internal/geom"
	"unn/internal/quantify"
)

// Request is the typed query request of the unified entry point
// Engine.Query: the kind (exactly one capability bit), the query point,
// and the per-kind knobs — Eps for approximating probability backends
// (≤ 0 selects the build-time default), K for top-k queries.
type Request struct {
	Kind Capability
	Q    geom.Point
	Eps  float64
	K    int
}

// Result is the typed answer of Engine.Query; the field matching the
// request kind is populated (see Kind).
type Result struct {
	Kind     Capability
	Nonzero  []int
	Probs    []quantify.Prob
	TopK     []quantify.Prob
	Expected ExpectedResult
}

// kindSpec is one registered query kind.
type kindSpec struct {
	cap  Capability
	name string // stable label: Capability.String element, Explain lines
	op   CostOp // the planner's cost-model term
	// cacheKind is the kind byte of the shared cache-key builder; usesEps
	// / usesK declare which request knobs participate in the key (the
	// builder canonicalizes the rest to zero so equivalent requests share
	// a cell).
	cacheKind      uint8
	usesEps, usesK bool
	// coalesce marks kinds whose queued runs Serve answers as one Batch*
	// call (serve.go). Their requests carry no knobs, so queries of the
	// same kind can share a batch.
	coalesce bool
	// run is the raw backend dispatch (no cache, no stats).
	run func(ix Index, req Request) (any, error)
	// fill writes the (possibly cached) payload into a Result.
	fill func(r *Result, v any)
	// weight reads the kind's Workload share for the planner.
	weight func(w Workload) float64
}

// numKinds is the registry size; NumKinds is its exported alias (the
// Stats table dimension).
const (
	numKinds = 4
	// NumKinds is the number of registered query kinds — the length of
	// the kind-indexed tables in Stats.
	NumKinds = numKinds
)

// kindTable is the registry, in slot order. Slot order is frozen:
// appending is fine, reordering would silently remap Stats slots.
var kindTable = [numKinds]kindSpec{
	{
		cap: CapNonzero, name: "nonzero", op: OpQueryNonzero, cacheKind: kindNonzero, coalesce: true,
		run:    func(ix Index, req Request) (any, error) { return ix.QueryNonzero(req.Q) },
		fill:   func(r *Result, v any) { r.Nonzero = v.([]int) },
		weight: func(w Workload) float64 { return w.Nonzero },
	},
	{
		cap: CapProbs, name: "probs", op: OpQueryProbs, cacheKind: kindProbs, usesEps: true,
		run:    func(ix Index, req Request) (any, error) { return ix.QueryProbs(req.Q, req.Eps) },
		fill:   func(r *Result, v any) { r.Probs = v.([]quantify.Prob) },
		weight: func(w Workload) float64 { return w.Probs },
	},
	{
		cap: CapExpected, name: "expected", op: OpQueryExpected, cacheKind: kindExpected, coalesce: true,
		run: func(ix Index, req Request) (any, error) {
			i, d, err := ix.QueryExpected(req.Q)
			return ExpectedResult{I: i, Dist: d}, err
		},
		fill:   func(r *Result, v any) { r.Expected = v.(ExpectedResult) },
		weight: func(w Workload) float64 { return w.Expected },
	},
	{
		cap: CapTopK, name: "topk", op: OpQueryTopK, cacheKind: kindTopK, usesEps: true, usesK: true,
		run: func(ix Index, req Request) (any, error) {
			return queryTopKOf(ix, req.Q, req.K, req.Eps)
		},
		fill:   func(r *Result, v any) { r.TopK = v.([]quantify.Prob) },
		weight: func(w Workload) float64 { return w.TopK },
	},
}

// The registry slots by name, for hot paths that index per-kind tables
// without the kindSlot scan (the shard visit counters).
const (
	slotNonzero = iota
	slotProbs
	slotExpected
	slotTopK
)

// kindSlot returns the registry slot of kind, or -1 for a value that is
// not a registered query kind (e.g. a Serve mutation op).
func kindSlot(kind Capability) int {
	for i := range kindTable {
		if kindTable[i].cap == kind {
			return i
		}
	}
	return -1
}

// kindByCap returns the registry entry of kind, or nil.
func kindByCap(kind Capability) *kindSpec {
	if i := kindSlot(kind); i >= 0 {
		return &kindTable[i]
	}
	return nil
}

// queryKinds lists the registered kinds' capability bits in slot order.
func queryKinds() []Capability {
	out := make([]Capability, numKinds)
	for i := range kindTable {
		out[i] = kindTable[i].cap
	}
	return out
}

// allKindCaps is the union of every registered capability bit.
func allKindCaps() Capability {
	var c Capability
	for i := range kindTable {
		c |= kindTable[i].cap
	}
	return c
}

// --- top-k dispatch ----------------------------------------------------------

// topKQuerier is the optional backend interface for kinds that own a
// native top-k path (the sharded merge, the brute reference). Backends
// advertising CapTopK without it are served by the generic
// rank-the-π-vector fallback below.
type topKQuerier interface {
	QueryTopK(q geom.Point, k int, eps float64) ([]quantify.Prob, error)
}

// queryTopKOf answers a top-k most-likely-NN query against ix: the
// backend's native implementation when it has one, else ranking the
// backend's full π vector. The quantum-hint wrapper is unwrapped so a
// hinted sharded/brute index still reaches its native path.
func queryTopKOf(ix Index, q geom.Point, k int, eps float64) ([]quantify.Prob, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: topk: k must be ≥ 1, got %d", k)
	}
	for {
		if tk, ok := ix.(topKQuerier); ok {
			return tk.QueryTopK(q, k, eps)
		}
		if h, ok := ix.(hintedIndex); ok {
			ix = h.Index
			continue
		}
		if !ix.Capabilities().Has(CapTopK) {
			return nil, fmt.Errorf("%w: backend %s lacks %s", ErrUnsupported, ix.Name(), CapTopK)
		}
		probs, err := ix.QueryProbs(q, eps)
		if err != nil {
			return nil, err
		}
		return topKSelect(probs, k), nil
	}
}

// topKSelect ranks a π vector and keeps the top k: probability
// descending, index ascending on ties — the deterministic order every
// top-k implementation (brute, sharded merge, fallback) must agree on.
// A min-heap of size k over the candidates keeps selection at
// O(n log k) without mutating the (possibly cached) input slice.
func topKSelect(probs []quantify.Prob, k int) []quantify.Prob {
	if k >= len(probs) {
		out := make([]quantify.Prob, len(probs))
		copy(out, probs)
		sort.Slice(out, func(i, j int) bool { return topKLess(out[j], out[i]) })
		return out
	}
	// heap[0] is the weakest kept candidate (min by ranking order).
	heap := make([]quantify.Prob, 0, k)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(heap) && topKLess(heap[l], heap[m]) {
				m = l
			}
			if r < len(heap) && topKLess(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	up := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !topKLess(heap[i], heap[p]) {
				return
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	for _, c := range probs {
		if len(heap) < k {
			heap = append(heap, c)
			up(len(heap) - 1)
			continue
		}
		if topKLess(heap[0], c) {
			heap[0] = c
			down(0)
		}
	}
	sort.Slice(heap, func(i, j int) bool { return topKLess(heap[j], heap[i]) })
	return heap
}

// topKLess orders candidates weakest-first: smaller probability, then
// larger index (so the ranking is P descending, index ascending).
func topKLess(a, b quantify.Prob) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	return a.I > b.I
}
