// The tiled (multi-query) NN≠0 kernel: one pass over the SoA rows
// serves a whole tile of T queries, each lane's answer bit-identical to
// a scalar AppendNonzero call on that query alone (the per-row work is
// the same math.Hypot calls in the same order with the same builtin
// min/max folds). The engine does not batch through it: its batches run
// the block-pruned single-query path, which reads ≈100 rows per query
// where this kernel reads all n. The repository benchmark's per-layer
// replay times it (kernel.tile_nonzero).
//
// Loop order is row-major (row outer, lane inner, locations innermost
// for discrete rows): the row's locations are hot in L1 while every
// lane consumes them, and each lane's scalar accumulators (m1, m2,
// arg1) live in small per-lane slices indexed by the lane id.
package kernel

import "math"

// scanAllTwoMinTile folds every row into every lane's running
// two-smallest-Δ state (ScanTwoMin's update rule, operation for
// operation), staging lane t's δ_i at deltas[t*n+i].
func (f *Flat) scanAllTwoMinTile(qx, qy []float64, deltas []float64, m1, m2 []float64, arg1 []int) {
	n := f.N
	T := len(qx)
	qy = qy[:T]
	switch f.Kind {
	case KindDiscrete:
		for i := 0; i < n; i++ {
			rx := f.Xs[f.Off[i]:f.Off[i+1]]
			ry := f.Ys[f.Off[i]:f.Off[i+1]]
			ry = ry[:len(rx)]
			for t := 0; t < T; t++ {
				qxt, qyt := qx[t], qy[t]
				lo, hi := math.Inf(1), 0.0
				for a, x := range rx {
					d := math.Hypot(qxt-x, qyt-ry[a])
					lo = min(lo, d)
					hi = max(hi, d)
				}
				deltas[t*n+i] = lo
				if hi < m1[t] {
					m2[t] = m1[t]
					m1[t], arg1[t] = hi, i
				} else if hi < m2[t] {
					m2[t] = hi
				}
			}
		}
	case KindSquares:
		for i := 0; i < n; i++ {
			for t := 0; t < T; t++ {
				d := f.squareDist(i, qx[t], qy[t])
				deltas[t*n+i] = max(d-f.R[i], 0)
				hi := d + f.R[i]
				if hi < m1[t] {
					m2[t] = m1[t]
					m1[t], arg1[t] = hi, i
				} else if hi < m2[t] {
					m2[t] = hi
				}
			}
		}
	default:
		for i := 0; i < n; i++ {
			cx, cy, r := f.CX[i], f.CY[i], f.R[i]
			for t := 0; t < T; t++ {
				d := math.Hypot(qx[t]-cx, qy[t]-cy)
				deltas[t*n+i] = max(d-r, 0)
				hi := d + r
				if hi < m1[t] {
					m2[t] = m1[t]
					m1[t], arg1[t] = hi, i
				} else if hi < m2[t] {
					m2[t] = hi
				}
			}
		}
	}
}

// AppendNonzeroTile is AppendNonzero over a tile of queries: lane t's
// NN≠0 answer (ascending row order) is appended to dsts[t]. Each lane's
// output is bit-identical to AppendNonzero(qx[t], qy[t], ...).
func (f *Flat) AppendNonzeroTile(qx, qy []float64, dsts [][]int, sc *Scratch) [][]int {
	n := f.N
	T := len(qx)
	if n == 0 || T == 0 {
		return dsts
	}
	if n == 1 {
		// The sole region is its own nonzero neighbor regardless of δ/Δ.
		for t := 0; t < T; t++ {
			dsts[t] = append(dsts[t], 0)
		}
		return dsts
	}
	m1, m2, arg1, deltas := sc.TileLanes(T, n)
	f.scanAllTwoMinTile(qx, qy, deltas, m1, m2, arg1)
	// Per lane, the same arg1-split filter as the scalar kernel: rows
	// other than the Δ-minimizer test the loop-invariant m1, the
	// minimizer itself tests m2, appends stay in ascending row order.
	for t := 0; t < T; t++ {
		row := deltas[t*n : t*n+n]
		dst := dsts[t]
		b1 := m1[t]
		a1 := arg1[t]
		end := a1
		if end < 0 {
			end = n
		}
		for i := 0; i < end; i++ {
			if row[i] < b1 {
				dst = append(dst, i)
			}
		}
		if a1 >= 0 {
			if row[a1] < m2[t] {
				dst = append(dst, a1)
			}
			for i := a1 + 1; i < n; i++ {
				if row[i] < b1 {
					dst = append(dst, i)
				}
			}
		}
		dsts[t] = dst
	}
	return dsts
}
