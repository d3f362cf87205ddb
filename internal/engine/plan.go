// The merge planner: how a ShardedIndex answers each query kind by
// combining per-shard answers.
//
// All three planners share one pruning primitive: a shard whose
// bounding-box lower-bound distance (in the backend's metric) is at
// least the current best upper bound cannot contribute — every extreme
// distance of its members is at least that lower bound. Shards are
// visited in ascending lower-bound order so the bound tightens as early
// as possible.
//
//   - QueryNonzero applies the global Lemma 2.1 predicate
//     δ_i(q) < min_{j≠i} Δ_j(q) directly. On the flat path (every
//     dataset with a kernel.Flat mirror) one fused SoA pass over the
//     unpruned shards stages each member's δ_i and folds its Δ_i into
//     the two-smallest scan, and the filter then reads the staged δ's —
//     no per-shard backend calls, and half the distance evaluations of
//     the two-pass AoS oracle. Pruned shards cannot qualify (δ_i ≥ lb ≥
//     m2 ≥ the filter bound, which the strict < rejects) nor shift
//     m1/m2 (their Δ's are ≥ lb), so the answer is the monolithic
//     oracle's, bit for bit. Datasets without a flat mirror keep the
//     historical merge: shard answers supply the candidates (each
//     shard's NN≠0 set is a superset of its members' global NN≠0 set)
//     and the same global filter reproduces the monolithic answer.
//   - QueryProbs on discrete datasets evaluates Eq. (2) exactly, with no
//     per-shard backend calls. One fused ScanTwoMin pass, the NN≠0
//     scan, stages δ_j and the two smallest Δ's m1 ≤ m2; it runs while
//     lb < m2 || lb ≤ m1. A location of P_i at distance r contributes
//     only while every other point may still be farther (G_j(r) < 1
//     needs r < Δ_j): r < Δ_arg1 = m1 for i ≠ arg1, r ≤ Δ_i = m1 for
//     i = arg1, so every contributing r is ≤ m1. Rows with
//     δ_j > m1 therefore have G_j(r) = 0 exactly — a factor of 1 — and
//     Eq. (2) runs over the competitors C = {scanned j : δ_j ≤ m1} for
//     the NN≠0 members of C only (Lemma 2.1: π is 0 elsewhere). The
//     vector is exact whatever the shard backends are, spiral and
//     Monte-Carlo shards included. On continuous datasets the merge
//     combines per-shard sparse π vectors under the independence model:
//     within a shard the backend already accounts for in-shard
//     competition, and the cross-shard survival is integrated against
//     the candidate's distance cdf *conditioned on the candidate winning
//     its own shard* (the in-shard survival product reweights the
//     integrand), so the sharded Monte-Carlo path converges to the exact
//     Eq. (2) value as the per-shard estimates do — the only residual
//     error is the backend's own estimate and the integral's
//     discretization.
//   - QueryExpected min-reduces the per-shard expected-distance winners,
//     tie-breaking on the global index.
//
// Every planner runs on a pooled planScratch (shard order, staged δ's,
// candidate ids), so steady-state queries through the appending entry
// points allocate nothing.
package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"unn/internal/geom"
	"unn/internal/kernel"
	"unn/internal/lmetric"
	"unn/internal/quantify"
)

// minDist returns δ_i(q) in the planner's metric (the flat row kernel
// when the dataset has one; the kernels replicate the AoS arithmetic
// operation for operation, so the value is bit-identical).
func (sx *ShardedIndex) minDist(i int, q geom.Point) float64 {
	if f := sx.flat; f != nil {
		return f.MinDist(i, q.X, q.Y)
	}
	if sx.ds.Squares != nil {
		s := sx.ds.Squares[i]
		switch sx.metric {
		case metricL1:
			return math.Max(q.DistL1(s.C)-s.R, 0)
		default:
			return s.MinDist(q) // L∞
		}
	}
	return sx.ds.Points[i].MinDist(q)
}

// maxDist returns Δ_i(q) in the planner's metric.
func (sx *ShardedIndex) maxDist(i int, q geom.Point) float64 {
	if f := sx.flat; f != nil {
		return f.MaxDist(i, q.X, q.Y)
	}
	if sx.ds.Squares != nil {
		s := sx.ds.Squares[i]
		switch sx.metric {
		case metricL1:
			return q.DistL1(s.C) + s.R
		default:
			return s.MaxDist(q) // L∞
		}
	}
	return sx.ds.Points[i].MaxDist(q)
}

// boundedShard is one merge part ordered by its bounding-box lower-bound
// distance from q.
type boundedShard struct {
	s  *shard
	lb float64
}

// planScratch is the merge planner's pooled per-query arena: the kernel
// scratch (staged δ's, candidate ids) plus the ordered shard list. One
// lease serves a whole query, so the steady-state appending paths
// allocate nothing.
type planScratch struct {
	sc    kernel.Scratch
	parts []boundedShard
}

var planPool = sync.Pool{New: func() any { return new(planScratch) }}

func getPlanScratch() *planScratch   { return planPool.Get().(*planScratch) }
func putPlanScratch(ps *planScratch) { planPool.Put(ps) }

// queryParts returns every built part the merge planner combines: the
// main shards plus the insert buffer (mutlog.go) when it holds items —
// the buffer is just one more shard to the planner, so every merge
// (the Lemma 2.1 filter, the cross-shard renormalization, the E[d]
// min-reduce) covers buffered items exactly.
func (sx *ShardedIndex) queryParts(yield func(*shard)) {
	for _, s := range sx.shards {
		if s.ix != nil {
			yield(s)
		}
	}
	if sx.buf != nil && sx.buf.ix != nil {
		yield(sx.buf)
	}
}

// appendParts appends every built part to buf with its lower bound and
// sorts ascending (stable, so equal bounds keep shard order) — the
// closure-free byLowerBound that reuses the planScratch backing array.
func (sx *ShardedIndex) appendParts(q geom.Point, buf []boundedShard) []boundedShard {
	for _, s := range sx.shards {
		if s.ix != nil {
			buf = append(buf, boundedShard{s: s, lb: sx.metric.rectDist(q, s.bbox)})
		}
	}
	if sx.buf != nil && sx.buf.ix != nil {
		buf = append(buf, boundedShard{s: sx.buf, lb: sx.metric.rectDist(q, sx.buf.bbox)})
	}
	slices.SortStableFunc(buf, func(a, b boundedShard) int {
		switch {
		case a.lb < b.lb:
			return -1
		case a.lb > b.lb:
			return 1
		default:
			return 0
		}
	})
	return buf
}

// soleShard returns the only built part (main shard or insert buffer),
// or nil when several exist.
func (sx *ShardedIndex) soleShard() *shard {
	var sole *shard
	several := false
	sx.queryParts(func(s *shard) {
		if sole != nil {
			several = true
		}
		sole = s
	})
	if several {
		return nil
	}
	return sole
}

// nonzeroAppender is the allocation-free NN≠0 contract: backends (and
// the sharded planner itself) that can append their sorted answer into a
// caller-supplied buffer implement it, and the engine's Into path and
// the shard merge use it to avoid the per-query result allocation.
type nonzeroAppender interface {
	appendNonzero(q geom.Point, dst []int) ([]int, error)
}

// appendNonzeroOf appends ix's NN≠0 answer to dst, preferring the
// appending fast path when ix (possibly behind the quantum-hint wrapper)
// implements it. Interface embedding does not promote unexported
// methods across the hintedIndex wrapper, hence the explicit unwrap.
func appendNonzeroOf(ix Index, q geom.Point, dst []int) ([]int, error) {
	for {
		if na, ok := ix.(nonzeroAppender); ok {
			return na.appendNonzero(q, dst)
		}
		if h, ok := ix.(hintedIndex); ok {
			ix = h.Index
			continue
		}
		loc, err := ix.QueryNonzero(q)
		if err != nil {
			return dst, err
		}
		return append(dst, loc...), nil
	}
}

// QueryNonzero implements Index: the global Lemma 2.1 answer
// δ_i(q) < min_{j≠i} Δ_j(q) over all shards.
func (sx *ShardedIndex) QueryNonzero(q geom.Point) ([]int, error) {
	return sx.appendNonzero(q, nil)
}

// appendNonzero implements nonzeroAppender over the sharded merge.
func (sx *ShardedIndex) appendNonzero(q geom.Point, dst []int) ([]int, error) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.broken != nil {
		return dst, sx.broken
	}
	if !sx.caps.Has(CapNonzero) {
		return dst, ErrUnsupported
	}
	ps := getPlanScratch()
	dst, err := sx.nonzeroInto(q, dst, ps)
	putPlanScratch(ps)
	return dst, err
}

// scanned is the state one fused Lemma 2.1 scan leaves: δ_i staged for
// every row of the scanned parts (ps.parts[:cut]) in a dense row indexed
// by global id, and the two smallest Δ's m1 ≤ m2, m1 attained by arg1.
type scanned struct {
	deltas []float64
	m1, m2 float64
	arg1   int
	cut    int
	single bool // n == 1: the lone point is its own NN≠0 answer
}

// nonzero reports whether scanned row i is in NN≠0(q):
// δ_i < min_{j≠i} Δ_j (Lemma 2.1).
func (ls *scanned) nonzero(i int) bool {
	bound := ls.m1
	if i == ls.arg1 {
		bound = ls.m2
	}
	return ls.deltas[i] < bound || ls.single
}

// lemmaScan runs one kernel.Flat.ScanTwoMin pass per part of ps.parts
// (sorted by lower bound lb) and counts a visit in slot for each part it
// scans. It stops at the first part with lb ≥ m2 and lb > m1; lb only
// grows along the order, so no later part is needed either. Such a part
// cannot lower m1/m2 (its Δ's are ≥ lb), holds no NN≠0 member (its δ's
// are ≥ lb ≥ m2, which the strict < of the filter rejects) and no row
// with δ_j ≤ m1 — so every row with δ_j ≤ m1, the competitor set of the
// π merge, is among the scanned ones.
func (sx *ShardedIndex) lemmaScan(f *kernel.Flat, q geom.Point, ps *planScratch, slot int) scanned {
	deltas := ps.sc.Dists
	if cap(deltas) < f.N {
		deltas = make([]float64, f.N)
		ps.sc.Dists = deltas
	}
	ls := scanned{deltas: deltas[:f.N], m1: math.Inf(1), m2: math.Inf(1), arg1: -1, single: sx.n == 1}
	for _, bs := range ps.parts {
		if bs.lb >= ls.m2 && bs.lb > ls.m1 {
			break
		}
		bs.s.visits[slot].Add(1)
		ls.m1, ls.m2, ls.arg1 = f.ScanTwoMin(bs.s.ids, q.X, q.Y, ls.deltas, ls.m1, ls.m2, ls.arg1)
		ls.cut++
	}
	return ls
}

// nonzeroInto is the merge body: callers hold the read lock and have
// checked broken/caps.
func (sx *ShardedIndex) nonzeroInto(q geom.Point, dst []int, ps *planScratch) ([]int, error) {
	if sole := sx.soleShard(); sole != nil {
		sole.visits[slotNonzero].Add(1)
		start := len(dst)
		out, err := appendNonzeroOf(sole.ix, q, dst)
		if err != nil {
			return dst, err
		}
		dst = out
		for i := start; i < len(dst); i++ {
			dst[i] = sole.ids[dst[i]] // ids ascending: stays sorted
		}
		return dst, nil
	}

	ps.parts = sx.appendParts(q, ps.parts[:0])
	ordered := ps.parts
	start := len(dst)

	if f := sx.flat; f != nil {
		// Flat path: the global predicate straight off the staged δ's —
		// no backend calls.
		ls := sx.lemmaScan(f, q, ps, slotNonzero)
		for _, bs := range ordered[:ls.cut] {
			for _, i := range bs.s.ids {
				if ls.nonzero(i) {
					dst = append(dst, i)
				}
			}
		}
		slices.Sort(dst[start:])
		return dst, nil
	}

	// Two smallest Δ over every unpruned shard. A shard with lb ≥ m2 can
	// neither lower m1/m2 (its Δ's are ≥ lb) nor contribute a candidate
	// (its δ's are ≥ lb ≥ the final threshold), and lb only grows along
	// the order, so the scan stops at the first such shard.
	m1, m2 := math.Inf(1), math.Inf(1)
	arg1 := -1

	// AoS fallback (no flat mirror): the per-shard merge — shard answers
	// supply the candidates, the global filter decides.
	cut := 0
	for _, bs := range ordered {
		if bs.lb >= m2 {
			break
		}
		bs.s.visits[slotNonzero].Add(1)
		for _, i := range bs.s.ids {
			d := sx.maxDist(i, q)
			if d < m1 {
				m2 = m1
				m1, arg1 = d, i
			} else if d < m2 {
				m2 = d
			}
		}
		cut++
	}
	for _, bs := range ordered[:cut] {
		loc, err := appendNonzeroOf(bs.s.ix, q, ps.sc.Loc[:0])
		ps.sc.Loc = loc
		if err != nil {
			return dst, fmt.Errorf("shard merge: %w", err)
		}
		for _, li := range loc {
			i := bs.s.ids[li]
			bound := m1
			if i == arg1 {
				bound = m2
			}
			if sx.minDist(i, q) < bound || sx.n == 1 {
				dst = append(dst, i)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst, nil
}

// QueryExpected implements Index: a min-reduce over the per-shard
// expected-distance winners. A shard is skipped when its lower bound
// exceeds the best expected distance found so far (E[d(q,P)] ≥ δ(q) ≥
// the shard bound); ties go to the smaller global index, matching the
// monolithic first-strict-min scan.
func (sx *ShardedIndex) QueryExpected(q geom.Point) (int, float64, error) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.broken != nil {
		return -1, 0, sx.broken
	}
	if !sx.caps.Has(CapExpected) {
		return -1, 0, ErrUnsupported
	}
	ps := getPlanScratch()
	defer putPlanScratch(ps)
	ps.parts = sx.appendParts(q, ps.parts[:0])
	bestI, bestD := -1, math.Inf(1)
	for _, bs := range ps.parts {
		if bs.lb > bestD {
			break
		}
		bs.s.visits[slotExpected].Add(1)
		li, d, err := bs.s.ix.QueryExpected(q)
		if err != nil {
			return -1, 0, fmt.Errorf("shard merge: %w", err)
		}
		gi := bs.s.ids[li]
		if d < bestD || (d == bestD && gi < bestI) {
			bestI, bestD = gi, d
		}
	}
	return bestI, bestD, nil
}

// QueryProbs implements Index: exact Eq. (2) over the Lemma 2.1
// competitors for discrete datasets, per-shard sparse π vectors combined
// under the independence model for continuous ones.
func (sx *ShardedIndex) QueryProbs(q geom.Point, eps float64) ([]quantify.Prob, error) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.broken != nil {
		return nil, sx.broken
	}
	if !sx.caps.Has(CapProbs) {
		return nil, ErrUnsupported
	}
	return sx.probsLocked(q, eps, slotProbs)
}

// QueryTopK implements the exact cross-shard top-k merge: the merged π
// vector (identical to QueryProbs — exact for discrete datasets,
// renormalized conditional-survival for continuous ones) ranked by the
// shared deterministic selection. Correctness of the sole-shard
// shortcut's id remap relies on shard ids being ascending: the
// local→global remap is monotonic, so the probability-descending,
// index-ascending order is preserved.
func (sx *ShardedIndex) QueryTopK(q geom.Point, k int, eps float64) ([]quantify.Prob, error) {
	if k < 1 {
		return nil, fmt.Errorf("engine: topk: k must be ≥ 1, got %d", k)
	}
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.broken != nil {
		return nil, sx.broken
	}
	if !sx.caps.Has(CapTopK) {
		return nil, ErrUnsupported
	}
	probs, err := sx.probsLocked(q, eps, slotTopK)
	if err != nil {
		return nil, err
	}
	return topKSelect(probs, k), nil
}

// probsLocked is the merged-π body shared by QueryProbs and QueryTopK:
// callers hold the read lock and have checked broken/caps. slot names
// the querying kind for the per-shard visit counters.
func (sx *ShardedIndex) probsLocked(q geom.Point, eps float64, slot int) ([]quantify.Prob, error) {
	if sole := sx.soleShard(); sole != nil {
		sole.visits[slot].Add(1)
		loc, err := sole.ix.QueryProbs(q, eps)
		if err != nil {
			return nil, err
		}
		out := make([]quantify.Prob, len(loc))
		for i, pr := range loc {
			out[i] = quantify.Prob{I: sole.ids[pr.I], P: pr.P}
		}
		return out, nil
	}

	ps := getPlanScratch()
	defer putPlanScratch(ps)
	ps.parts = sx.appendParts(q, ps.parts[:0])
	// Every discrete dataset carries a discrete flat mirror (Build,
	// the mutation paths and snapshot restore all derive one), so the
	// discrete merge never consults the shard backends.
	if f := sx.flat; f != nil && f.Kind == kernel.KindDiscrete {
		return sx.discreteProbs(f, q, slot, ps), nil
	}

	// Continuous path: candidates staged as parallel scratch rows
	// (global id, owning-shard position, shard-local π). Every part is
	// asked for candidates (pruning happens at the survival-factor level,
	// not per shard), so every part counts a visit.
	ordered := ps.parts
	cands := ps.sc.Cand[:0]
	owners := ps.sc.Loc[:0]
	pis := ps.sc.Probs[:0]
	for si, bs := range ordered {
		bs.s.visits[slot].Add(1)
		loc, err := bs.s.ix.QueryProbs(q, eps)
		if err != nil {
			ps.sc.Cand, ps.sc.Loc, ps.sc.Probs = cands, owners, pis
			return nil, fmt.Errorf("shard merge: %w", err)
		}
		for _, pr := range loc {
			cands = append(cands, bs.s.ids[pr.I])
			owners = append(owners, si)
			pis = append(pis, pr.P)
		}
	}
	ps.sc.Cand, ps.sc.Loc, ps.sc.Probs = cands, owners, pis
	var out []quantify.Prob
	total := 0.0
	for ci, gi := range cands {
		p := pis[ci] * sx.conditionalCrossSurvival(q, gi, ordered, owners[ci])
		if p > 0 {
			out = append(out, quantify.Prob{I: gi, P: p})
			total += p
		}
	}
	// With the conditioned weights the merged vector already sums to 1
	// in the limit; the renormalization only absorbs the per-shard
	// estimators' residual noise (Monte-Carlo variance, integral
	// discretization).
	if total > 0 {
		for i := range out {
			out[i].P /= total
		}
	}
	slices.SortFunc(out, func(a, b quantify.Prob) int {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	})
	return out, nil
}

// discreteProbs is the exact discrete π merge (see the package comment
// for why every contributing r is ≤ m1): the NN≠0 scan, then, with C
// the scanned rows with δ_j ≤ m1 in ascending id,
//
//	π_i(q) = Σ_a w_ia · Π_{j∈C, j≠i, δ_j ≤ r_ia} (1 − G_j(q, r_ia))
//
// for each NN≠0 member i of C, stopping at 0. A factor skipped by
// δ_j > r (inside C or out) has G_j(r) = 0 exactly; every other π is 0
// by Lemma 2.1.
func (sx *ShardedIndex) discreteProbs(f *kernel.Flat, q geom.Point, slot int, ps *planScratch) []quantify.Prob {
	ls := sx.lemmaScan(f, q, ps, slot)
	comp := ps.sc.Cand[:0]
	for _, bs := range ps.parts[:ls.cut] {
		for _, j := range bs.s.ids {
			if ls.deltas[j] <= ls.m1 {
				comp = append(comp, j)
			}
		}
	}
	slices.Sort(comp)
	ps.sc.Cand = comp

	var out []quantify.Prob
	for _, i := range comp {
		if !ls.nonzero(i) {
			continue
		}
		total := 0.0
		for a := f.Off[i]; a < f.Off[i+1]; a++ {
			r := math.Hypot(q.X-f.Xs[a], q.Y-f.Ys[a])
			prod := 1.0
			for _, j := range comp {
				if j == i || ls.deltas[j] > r {
					continue
				}
				g := 1 - f.DistCDF(j, q.X, q.Y, r)
				if g <= 0 {
					prod = 0
					break
				}
				prod *= g
			}
			total += f.W[a] * prod
		}
		if total > 0 {
			out = append(out, quantify.Prob{I: i, P: total})
		}
	}
	return out
}

// distCDF returns G_i(q, r) = Pr[d(q, P_i) ≤ r] in the planner's
// metric. Discrete datasets read the flat location rows (bit-identical
// to the AoS cdf — same fold order, same ≤); other point datasets
// delegate to the uncertain point's own cdf; a squares-only dataset
// (ds.Points == nil, built by FromSquares) derives the cdf from the
// uniform distribution over the square region instead of dereferencing
// the absent Points view.
func (sx *ShardedIndex) distCDF(i int, q geom.Point, r float64) float64 {
	if f := sx.flat; f != nil && f.Kind == kernel.KindDiscrete {
		return f.DistCDF(i, q.X, q.Y, r)
	}
	if sx.ds.Points != nil {
		return sx.ds.Points[i].DistCDF(q, r)
	}
	return squareDistCDF(sx.ds.Squares[i], sx.metric, q, r)
}

// squareDistCDF is the distance cdf of a uniform distribution on square
// (or diamond) s under metric m: the fraction of the region within
// distance r of q. Under L∞ that is a rectangle–rectangle overlap;
// under L1 the 45° rotation (u, v) = (x+y, x−y) maps both diamonds to
// axis-aligned squares (|x−c|₁ = max(|u−cᵤ|, |v−cᵥ|)), reducing to the
// same overlap. The L2 ball–square overlap has no closed form worth
// carrying here — no current constructor shards squares under L2 — so
// it falls back to the linear ramp between δ and Δ.
func squareDistCDF(s lmetric.Square, m qmetric, q geom.Point, r float64) float64 {
	switch m {
	case metricLinf:
		return rectBallOverlap(s.C, s.R, q, r)
	case metricL1:
		return rectBallOverlap(s.C.RotL1(), s.R, q.RotL1(), r)
	default:
		rect := geom.Rect{
			Min: geom.Pt(s.C.X-s.R, s.C.Y-s.R),
			Max: geom.Pt(s.C.X+s.R, s.C.Y+s.R),
		}
		lo, hi := rect.DistToPoint(q), rect.MaxDistToPoint(q)
		switch {
		case r < lo:
			return 0
		case r >= hi:
			return 1
		default:
			return (r - lo) / (hi - lo)
		}
	}
}

// rectBallOverlap is the area fraction of the square [c±R] covered by
// the square [q±r] (the L∞ ball), handling the zero-area point mass.
func rectBallOverlap(c geom.Point, R float64, q geom.Point, r float64) float64 {
	if R <= 0 {
		if q.DistLinf(c) <= r {
			return 1
		}
		return 0
	}
	w := math.Min(c.X+R, q.X+r) - math.Max(c.X-R, q.X-r)
	h := math.Min(c.Y+R, q.Y+r) - math.Max(c.Y-R, q.Y-r)
	if w <= 0 || h <= 0 {
		return 0
	}
	return math.Min(w*h/(4*R*R), 1)
}

// survival returns Π_{j∈t, j≠skip} (1 − G_j(q,r)) for shard t, pruning
// to 1 when the shard's lower bound exceeds r (then G_j(r) = 0 for every
// member). Locations at distance exactly r count into G (the ≤ of
// Eq. (2)), so pruning requires lb > r strictly.
func (sx *ShardedIndex) survival(q geom.Point, r float64, t boundedShard, skip int) float64 {
	if t.lb > r {
		return 1
	}
	prod := 1.0
	for _, j := range t.s.ids {
		if j == skip {
			continue
		}
		f := 1 - sx.distCDF(j, q, r)
		if f <= 0 {
			return 0
		}
		prod *= f
	}
	return prod
}

// conditionalCrossSurvival estimates, for a continuous candidate, the
// probability that every *other* shard stays farther than the candidate
// — conditioned on the candidate winning its own shard:
//
//	C_i = ∫ S_in(r)·S_cross(r) dG_i(r) / ∫ S_in(r) dG_i(r)
//
// where S_in(r) = Π_{j∈s, j≠i} (1 − G_j(q,r)) is the in-shard survival
// and S_cross(r) = Π_{t≠s} S_t(r) the cross-shard one. Multiplying the
// shard's own π estimate (≈ the denominator) by C_i recovers the full
// Eq. (2) integral ∫ Π_{j≠i} (1 − G_j) dG_i: the former unconditional
// weighting factorized E[S_in]·E[S_cross] where the exact value needs
// E[S_in·S_cross] — both survivals shrink with r, so the factorization
// systematically overweighted far candidates. With the conditioning the
// sharded Monte-Carlo path is exact in the limit of the per-shard
// estimates; only the backend's own error and the discretization remain.
func (sx *ShardedIndex) conditionalCrossSurvival(q geom.Point, gi int, ordered []boundedShard, own int) float64 {
	cross := func(r float64) float64 {
		prod := 1.0
		for si, t := range ordered {
			if si == own {
				continue
			}
			prod *= sx.survival(q, r, t, gi)
			if prod == 0 {
				break
			}
		}
		return prod
	}
	lo, hi := sx.minDist(gi, q), sx.maxDist(gi, q)
	if !(hi > lo) {
		// Point mass at distance lo: the in-shard factor cancels between
		// numerator and denominator.
		return cross(lo)
	}
	const steps = 32
	num, den := 0.0, 0.0
	uncond := 0.0 // fallback: the unconditional integral
	gPrev := 0.0
	for s := 1; s <= steps; s++ {
		r := lo + (hi-lo)*float64(s)/steps
		g := sx.distCDF(gi, q, r)
		dg := g - gPrev
		gPrev = g
		if dg <= 0 {
			continue
		}
		mid := r - (hi-lo)/(2*steps)
		inShard := sx.survival(q, mid, ordered[own], gi)
		xs := cross(mid)
		num += dg * inShard * xs
		den += dg * inShard
		uncond += dg * xs
	}
	if den <= 1e-12 {
		// The discretized in-shard win probability vanished (the shard
		// backend's estimate disagreed, e.g. Monte-Carlo noise); fall back
		// to the unconditional weighting rather than zeroing a candidate
		// the backend reported alive.
		return uncond
	}
	return num / den
}

// --- tiled batch merge --------------------------------------------------------

// batchTiledNonzero implements tiledNonzeroBatcher over the sharded
// merge: the shard-affine schedule. Queries are sorted by their nearest
// shard (the part with the smallest bbox lower bound) so each tile's
// lanes agree on which shards survive pruning, then each tile runs one
// fused SoA pass per unpruned shard — the shard's rows are read once
// while hot instead of once per query. Answers are emitted per lane
// through sink (lane → input index), so scheduling order never shows in
// the output.
func (sx *ShardedIndex) batchTiledNonzero(qs []geom.Point, tile, workers int, sink nonzeroSink) (int, int, error) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	if sx.broken != nil {
		return 0, 0, sx.broken
	}
	if !sx.caps.Has(CapNonzero) {
		return 0, 0, ErrUnsupported
	}
	f := sx.flat
	if f == nil {
		return 0, 0, errUntileable
	}
	if len(qs) == 0 {
		return 0, 0, nil
	}
	tile = clampTile(tile, f.N)

	ts := getTileScratch()
	defer putTileScratch(ts)

	// Affinity order: pack (nearest shard ≪ 32 | query index) and sort —
	// queries that agree on their closest shard become tile neighbors,
	// ties keep input order (the low bits).
	pack := ts.pack[:0]
	for qi, q := range qs {
		near, nd := 0, math.Inf(1)
		for si := range sx.shards {
			if sx.shards[si].ix == nil {
				continue
			}
			if d := sx.metric.rectDist(q, sx.shards[si].bbox); d < nd {
				near, nd = si, d
			}
		}
		pack = append(pack, int64(near)<<32|int64(uint32(qi)))
	}
	slices.Sort(pack)
	ts.pack = pack

	nTiles := (len(qs) + tile - 1) / tile
	slots := nTiles * tile
	if workers <= 1 || nTiles == 1 {
		for ti := 0; ti < nTiles; ti++ {
			lo := ti * tile
			sx.runNonzeroTile(f, qs, pack[lo:min(lo+tile, len(pack))], sink, ts)
		}
		return slots, len(qs), nil
	}
	parallelTiles(workers, nTiles, func(ti int, wts *tileScratch) {
		lo := ti * tile
		sx.runNonzeroTile(f, qs, pack[lo:min(lo+tile, len(pack))], sink, wts)
	})
	return slots, len(qs), nil
}

// runNonzeroTile answers one tile: per-lane shard lower bounds, shards
// visited in ascending tile-minimum order with per-lane Lemma 2.1
// pruning (lane t skips a shard once its lb reaches the lane's m2), one
// ScanTwoMinTile pass per surviving shard, then the per-lane global
// filter over the lane's scanned shards. Each lane's candidate set is
// the scalar merge's bit for bit: a skipped shard's rows have
// Δ ≥ δ ≥ lb ≥ the lane's final m2 ≥ its filter bound, so they neither
// shift the two-smallest fold (which is visit-order independent) nor
// pass the strict < filter.
func (sx *ShardedIndex) runNonzeroTile(f *kernel.Flat, qs []geom.Point, pk []int64, sink nonzeroSink, ts *tileScratch) {
	T := len(pk)
	if T == 0 {
		return
	}
	ts.lanes(T)
	for t, p := range pk {
		qi := int(uint32(p))
		ts.qi[t] = qi
		ts.qx[t], ts.qy[t] = qs[qi].X, qs[qi].Y
	}

	parts := ts.parts[:0]
	for _, s := range sx.shards {
		if s.ix != nil {
			parts = append(parts, boundedShard{s: s})
		}
	}
	if sx.buf != nil && sx.buf.ix != nil {
		parts = append(parts, boundedShard{s: sx.buf})
	}
	ts.parts = parts
	S := len(parts)

	ts.lbs = growFloats(ts.lbs, T*S)
	ts.scanned = growBools(ts.scanned, T*S)
	for si := range parts {
		minLb := math.Inf(1)
		for t := 0; t < T; t++ {
			lb := sx.metric.rectDist(geom.Pt(ts.qx[t], ts.qy[t]), parts[si].s.bbox)
			ts.lbs[t*S+si] = lb
			minLb = min(minLb, lb)
		}
		parts[si].lb = minLb
	}
	// Visit order: ascending tile-minimum lower bound (insertion sort —
	// S is small and the slice is pooled; stable, like the scalar path).
	order := ts.order[:0]
	for si := 0; si < S; si++ {
		order = append(order, si)
	}
	for i := 1; i < S; i++ {
		for j := i; j > 0 && parts[order[j]].lb < parts[order[j-1]].lb; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	ts.order = order

	if cap(ts.act) < T {
		ts.act = make([]int, 0, T)
	}
	m1, m2, arg1, deltas := ts.sc.TileLanes(T, f.N)
	for _, si := range order {
		// Tile-level early stop: the minimum lb only grows along the
		// order, so once it reaches every lane's m2 no later shard can
		// activate any lane.
		stop := 0.0
		for t := 0; t < T; t++ {
			stop = max(stop, m2[t])
		}
		if parts[si].lb >= stop {
			break
		}
		act := ts.act[:0]
		for t := 0; t < T; t++ {
			if ts.lbs[t*S+si] < m2[t] {
				act = append(act, t)
				ts.scanned[t*S+si] = true
			}
		}
		ts.act = act
		if len(act) == 0 {
			continue
		}
		parts[si].s.visits[slotNonzero].Add(uint64(len(act)))
		f.ScanTwoMinTile(parts[si].s.ids, act, ts.qx, ts.qy, deltas, f.N, m1, m2, arg1)
	}

	for t := 0; t < T; t++ {
		row := deltas[t*f.N : t*f.N+f.N]
		cand := ts.sc.Cand[:0]
		b1, b2, a1 := m1[t], m2[t], arg1[t]
		for si := range parts {
			if !ts.scanned[t*S+si] {
				continue
			}
			for _, i := range parts[si].s.ids {
				bound := b1
				if i == a1 {
					bound = b2
				}
				if row[i] < bound || sx.n == 1 {
					cand = append(cand, i)
				}
			}
		}
		slices.Sort(cand)
		ts.sc.Cand = cand
		sink.emitNonzero(ts.qi[t], cand)
	}
}
