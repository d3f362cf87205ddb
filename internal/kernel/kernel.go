// Package kernel provides flat, allocation-free query kernels over
// structure-of-arrays (SoA) mirrors of the uncertain datasets.
//
// The AoS inner loops (interface dispatch into uncertain.Point, pointer
// chases into per-point location slices) dominate every per-query cost
// the engine's planner routes between. Flattening each region family
// into contiguous float64 rows removes the dispatch and the chases, and
// — more importantly — lets one pass compute both extreme distances
// δ_i(q) and Δ_i(q) from the same per-location distances, halving the
// hypot count of the Lemma 2.1 oracle (the AoS path pays one full pass
// for the two-smallest-Δ scan and a second for the δ filter).
//
// Three row layouts cover every dataset the engine flattens:
//
//	disks    (uniform / truncated-Gaussian regions): CX, CY, R
//	discrete (location sets): Xs, Ys, W with Off[i] row offsets
//	squares  (L∞ balls, or L1 diamonds pre-rotation): CX, CY, R
//
// Every kernel reproduces the AoS arithmetic operation for operation:
// the same math.Hypot calls in the same order, with min/max folds
// written as the builtin min/max instead of math.Min/math.Max calls.
// The builtins carry the exact math.Min/math.Max IEEE semantics (NaN
// propagation, -0 < +0), so every fold is bit-identical — but they
// inline to branchless compare-select code, where math.Min/math.Max
// compile to assembly calls on amd64/go1.24 (≈55% of the brute query
// in profiles) and hand-written `if d < lo` branches mispredict on
// random query streams (≈2.5× slower than the select in the same
// loop). Answers stay bit-identical to the interface path, and the
// sharded merge stays bit-identical to the monolithic oracle.
package kernel

import (
	"math"
	"slices"

	"unn/internal/geom"
	"unn/internal/lmetric"
	"unn/internal/uncertain"
)

// Kind identifies the flattened region family.
type Kind uint8

const (
	KindDisks Kind = iota
	KindDiscrete
	KindSquares
)

// Metric selects the distance used for square rows (disk and discrete
// rows are always Euclidean).
type Metric uint8

const (
	MetricL2 Metric = iota
	MetricLinf
	MetricL1
)

// Flat is the SoA mirror of one dataset (or one shard's sub-dataset).
// Concurrent readers may share a Flat freely; the mutating
// AppendRegionRow / AppendDiscreteRow / DeleteRow methods keep a mirror
// in step with a mutable dataset and require the caller to exclude
// readers while they run (the engine calls them under its write lock).
type Flat struct {
	Kind   Kind
	Metric Metric
	N      int
	// Disk / square rows: center and radius (half-side for squares).
	CX, CY, R []float64
	// Discrete rows: all locations flattened, row i owning
	// [Off[i], Off[i+1]).
	Xs, Ys, W []float64
	Off       []int32
}

// FromDisks flattens disk regions.
func FromDisks(disks []geom.Disk) *Flat {
	return FromDisksInto(nil, disks)
}

// FromDisksInto is FromDisks reusing prev's slice capacity when prev is
// a disk-kind mirror (the engine re-derives a mutable dataset's mirror
// at most once per mutation epoch; reuse keeps that off the allocator).
// prev must not be read afterward.
func FromDisksInto(prev *Flat, disks []geom.Disk) *Flat {
	f := recycle(prev, KindDisks, MetricL2)
	f.N = len(disks)
	for _, d := range disks {
		f.CX = append(f.CX, d.C.X)
		f.CY = append(f.CY, d.C.Y)
		f.R = append(f.R, d.R)
	}
	return f
}

// FromDiscrete flattens discrete uncertain points, preserving per-row
// location order (the kernels' min/max/sum folds must visit locations
// in the AoS order to stay bit-identical).
func FromDiscrete(pts []*uncertain.Discrete) *Flat {
	return FromDiscreteInto(nil, pts)
}

// FromDiscreteInto is FromDiscrete reusing prev's slice capacity when
// prev is a discrete-kind mirror. prev must not be read afterward.
func FromDiscreteInto(prev *Flat, pts []*uncertain.Discrete) *Flat {
	f := recycle(prev, KindDiscrete, MetricL2)
	f.N = len(pts)
	rows := 0
	for _, p := range pts {
		rows += len(p.Locs)
	}
	f.Xs, f.Ys, f.W = slices.Grow(f.Xs, rows), slices.Grow(f.Ys, rows), slices.Grow(f.W, rows)
	f.Off = slices.Grow(f.Off, len(pts)+1)
	f.Off = append(f.Off, 0)
	for _, p := range pts {
		for a, l := range p.Locs {
			f.Xs = append(f.Xs, l.X)
			f.Ys = append(f.Ys, l.Y)
			f.W = append(f.W, p.W[a])
		}
		f.Off = append(f.Off, int32(len(f.Xs)))
	}
	return f
}

// FromSquares flattens square (L∞) or diamond (L1) regions under the
// given metric.
func FromSquares(sqs []lmetric.Square, m Metric) *Flat {
	return FromSquaresInto(nil, sqs, m)
}

// FromSquaresInto is FromSquares reusing prev's slice capacity when
// prev is a square-kind mirror under the same metric. prev must not be
// read afterward.
func FromSquaresInto(prev *Flat, sqs []lmetric.Square, m Metric) *Flat {
	f := recycle(prev, KindSquares, m)
	f.N = len(sqs)
	for _, s := range sqs {
		f.CX = append(f.CX, s.C.X)
		f.CY = append(f.CY, s.C.Y)
		f.R = append(f.R, s.R)
	}
	return f
}

// recycle returns prev emptied for refilling when its kind and metric
// match, a fresh Flat otherwise.
func recycle(prev *Flat, k Kind, m Metric) *Flat {
	if prev == nil || prev.Kind != k || prev.Metric != m {
		return &Flat{Kind: k, Metric: m}
	}
	prev.N = 0
	prev.CX, prev.CY, prev.R = prev.CX[:0], prev.CY[:0], prev.R[:0]
	prev.Xs, prev.Ys, prev.W = prev.Xs[:0], prev.Ys[:0], prev.W[:0]
	prev.Off = prev.Off[:0]
	return prev
}

// AppendRegionRow appends one disk or square row (both families share
// the CX/CY/R layout). Mutating method: see the Flat doc for the
// locking contract.
func (f *Flat) AppendRegionRow(cx, cy, r float64) {
	f.CX = append(f.CX, cx)
	f.CY = append(f.CY, cy)
	f.R = append(f.R, r)
	f.N++
}

// AppendDiscreteRow appends one discrete row of locations in AoS order.
// Mutating method: see the Flat doc for the locking contract.
func (f *Flat) AppendDiscreteRow(locs []geom.Point, w []float64) {
	for a, l := range locs {
		f.Xs = append(f.Xs, l.X)
		f.Ys = append(f.Ys, l.Y)
		f.W = append(f.W, w[a])
	}
	f.Off = append(f.Off, int32(len(f.Xs)))
	f.N++
}

// DeleteRow removes row i, shifting later rows down one slot — the same
// dense id remap the engine applies to its dataset views, at the same
// O(n) splice cost. Mutating method: see the Flat doc for the locking
// contract.
func (f *Flat) DeleteRow(i int) {
	if f.Kind == KindDiscrete {
		lo, hi := int(f.Off[i]), int(f.Off[i+1])
		f.Xs = append(f.Xs[:lo], f.Xs[hi:]...)
		f.Ys = append(f.Ys[:lo], f.Ys[hi:]...)
		f.W = append(f.W[:lo], f.W[hi:]...)
		w := int32(hi - lo)
		n := f.N
		for j := i + 1; j < n; j++ {
			f.Off[j] = f.Off[j+1] - w
		}
		f.Off = f.Off[:n]
	} else {
		f.CX = append(f.CX[:i], f.CX[i+1:]...)
		f.CY = append(f.CY[:i], f.CY[i+1:]...)
		f.R = append(f.R[:i], f.R[i+1:]...)
	}
	f.N--
}

// squareDist is d(q, C_i) in the square metric: Chebyshev for L∞ rows,
// Manhattan for L1 rows (matching the planner's qmetric arithmetic).
func (f *Flat) squareDist(i int, qx, qy float64) float64 {
	dx, dy := math.Abs(qx-f.CX[i]), math.Abs(qy-f.CY[i])
	if f.Metric == MetricL1 {
		return dx + dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// MinDist returns δ_i(q), bit-identical to the AoS MinDist of row i.
func (f *Flat) MinDist(i int, qx, qy float64) float64 {
	switch f.Kind {
	case KindDiscrete:
		best := math.Inf(1)
		for a := f.Off[i]; a < f.Off[i+1]; a++ {
			best = min(best, math.Hypot(qx-f.Xs[a], qy-f.Ys[a]))
		}
		return best
	case KindSquares:
		return max(f.squareDist(i, qx, qy)-f.R[i], 0)
	default:
		return max(math.Hypot(qx-f.CX[i], qy-f.CY[i])-f.R[i], 0)
	}
}

// MaxDist returns Δ_i(q), bit-identical to the AoS MaxDist of row i.
func (f *Flat) MaxDist(i int, qx, qy float64) float64 {
	switch f.Kind {
	case KindDiscrete:
		best := 0.0
		for a := f.Off[i]; a < f.Off[i+1]; a++ {
			best = max(best, math.Hypot(qx-f.Xs[a], qy-f.Ys[a]))
		}
		return best
	case KindSquares:
		return f.squareDist(i, qx, qy) + f.R[i]
	default:
		return math.Hypot(qx-f.CX[i], qy-f.CY[i]) + f.R[i]
	}
}

// MinMaxDist returns (δ_i(q), Δ_i(q)) from one pass over row i — the
// fused form that halves the per-location distance evaluations relative
// to separate MinDist+MaxDist calls.
func (f *Flat) MinMaxDist(i int, qx, qy float64) (lo, hi float64) {
	switch f.Kind {
	case KindDiscrete:
		lo, hi = math.Inf(1), 0
		for a := f.Off[i]; a < f.Off[i+1]; a++ {
			d := math.Hypot(qx-f.Xs[a], qy-f.Ys[a])
			lo = min(lo, d)
			hi = max(hi, d)
		}
		return lo, hi
	case KindSquares:
		d := f.squareDist(i, qx, qy)
		return max(d-f.R[i], 0), d + f.R[i]
	default:
		d := math.Hypot(qx-f.CX[i], qy-f.CY[i])
		return max(d-f.R[i], 0), d + f.R[i]
	}
}

// ScanTwoMin folds the rows listed in ids into the running
// two-smallest-Δ state (m1, m2, arg1) of the Lemma 2.1 scan, staging
// each row's δ into deltas (indexed by row id) for the later filter
// pass. The update rule matches the brute oracles exactly, so the final
// (m1, m2) are the true two smallest Δ values regardless of visit
// order, and arg1 only differs from the monolithic scan's when
// m1 == m2 — where the filter bound is the same either way.
func (f *Flat) ScanTwoMin(ids []int, qx, qy float64, deltas []float64, m1, m2 float64, arg1 int) (float64, float64, int) {
	switch f.Kind {
	case KindDiscrete:
		for _, i := range ids {
			rx := f.Xs[f.Off[i]:f.Off[i+1]]
			ry := f.Ys[f.Off[i]:f.Off[i+1]]
			ry = ry[:len(rx)] // provable len equality: no ry[a] bounds check
			lo, hi := math.Inf(1), 0.0
			for a, x := range rx {
				d := math.Hypot(qx-x, qy-ry[a])
				lo = min(lo, d)
				hi = max(hi, d)
			}
			deltas[i] = lo
			if hi < m1 {
				m2 = m1
				m1, arg1 = hi, i
			} else if hi < m2 {
				m2 = hi
			}
		}
	case KindSquares:
		for _, i := range ids {
			d := f.squareDist(i, qx, qy)
			deltas[i] = max(d-f.R[i], 0)
			hi := d + f.R[i]
			if hi < m1 {
				m2 = m1
				m1, arg1 = hi, i
			} else if hi < m2 {
				m2 = hi
			}
		}
	default:
		for _, i := range ids {
			d := math.Hypot(qx-f.CX[i], qy-f.CY[i])
			deltas[i] = max(d-f.R[i], 0)
			hi := d + f.R[i]
			if hi < m1 {
				m2 = m1
				m1, arg1 = hi, i
			} else if hi < m2 {
				m2 = hi
			}
		}
	}
	return m1, m2, arg1
}

// AppendNonzero appends NN≠0(q) over every row to dst — the Lemma 2.1
// brute oracle in one fused pass, staging δ values in sc.Dists. Output
// is in ascending row order, matching the AoS oracles.
func (f *Flat) AppendNonzero(qx, qy float64, dst []int, sc *Scratch) []int {
	n := f.N
	if n == 0 {
		return dst
	}
	deltas := sc.Dists
	if cap(deltas) < n {
		deltas = make([]float64, n)
		sc.Dists = deltas
	}
	deltas = deltas[:n]
	if n == 1 {
		// The sole region is its own nonzero neighbor regardless of δ/Δ.
		return append(dst, 0)
	}
	m1, m2 := math.Inf(1), math.Inf(1)
	arg1 := -1
	m1, m2, arg1 = f.scanAllTwoMin(qx, qy, deltas, m1, m2, arg1)
	// Split the filter at arg1 so the common rows test a loop-invariant
	// bound (m1); only the Δ-minimizer itself tests m2 (min over j ≠ i).
	// Appends happen in the same ascending order as the fused loop did.
	end := arg1
	if end < 0 {
		end = n
	}
	for i := 0; i < end; i++ {
		if deltas[i] < m1 {
			dst = append(dst, i)
		}
	}
	if arg1 >= 0 {
		if deltas[arg1] < m2 {
			dst = append(dst, arg1)
		}
		for i := arg1 + 1; i < n; i++ {
			if deltas[i] < m1 {
				dst = append(dst, i)
			}
		}
	}
	return dst
}

// scanAllTwoMin is ScanTwoMin over every row without the ids
// indirection (the brute oracle's full scan).
func (f *Flat) scanAllTwoMin(qx, qy float64, deltas []float64, m1, m2 float64, arg1 int) (float64, float64, int) {
	n := f.N
	deltas = deltas[:n] // provable i < n = len(deltas): no store bounds checks
	switch f.Kind {
	case KindDiscrete:
		// The full scan visits rows in storage order, so one flat cursor
		// walks Xs/Ys once — no per-row subslice construction, and the
		// row boundary is the only extra compare per location.
		xs, ys, off := f.Xs, f.Ys, f.Off
		a := int(off[0])
		for i := 0; i < n; i++ {
			end := int(off[i+1])
			lo, hi := math.Inf(1), 0.0
			for ; a < end; a++ {
				d := math.Hypot(qx-xs[a], qy-ys[a])
				lo = min(lo, d)
				hi = max(hi, d)
			}
			deltas[i] = lo
			if hi < m1 {
				m2 = m1
				m1, arg1 = hi, i
			} else if hi < m2 {
				m2 = hi
			}
		}
	case KindSquares:
		for i := 0; i < n; i++ {
			d := f.squareDist(i, qx, qy)
			deltas[i] = max(d-f.R[i], 0)
			hi := d + f.R[i]
			if hi < m1 {
				m2 = m1
				m1, arg1 = hi, i
			} else if hi < m2 {
				m2 = hi
			}
		}
	default:
		for i := 0; i < n; i++ {
			d := math.Hypot(qx-f.CX[i], qy-f.CY[i])
			deltas[i] = max(d-f.R[i], 0)
			hi := d + f.R[i]
			if hi < m1 {
				m2 = m1
				m1, arg1 = hi, i
			} else if hi < m2 {
				m2 = hi
			}
		}
	}
	return m1, m2, arg1
}

// ExpectedArgmin returns the discrete row minimizing E d(q, P_i) with
// the first-strict-min tie rule of the brute scan, and that minimum.
// Callers guard Kind == KindDiscrete.
func (f *Flat) ExpectedArgmin(qx, qy float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i := 0; i < f.N; i++ {
		e := 0.0
		for a := f.Off[i]; a < f.Off[i+1]; a++ {
			e += f.W[a] * math.Hypot(qx-f.Xs[a], qy-f.Ys[a])
		}
		if e < bestD {
			best, bestD = i, e
		}
	}
	return best, bestD
}

// DistCDF returns G_i(q, r) = Σ_{d(q,p_ia) ≤ r} w_ia for discrete row i
// (Eq. (2)). Callers guard Kind == KindDiscrete.
func (f *Flat) DistCDF(i int, qx, qy, r float64) float64 {
	total := 0.0
	for a := f.Off[i]; a < f.Off[i+1]; a++ {
		if math.Hypot(qx-f.Xs[a], qy-f.Ys[a]) <= r {
			total += f.W[a]
		}
	}
	return total
}
