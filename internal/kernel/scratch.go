package kernel

import (
	"math"
	"sync"
)

// Scratch is the reusable per-query arena: every buffer a query kernel
// needs to stage candidates, per-row distances, or probabilities lives
// here, so a steady-state query allocates nothing. Buffers keep their
// capacity across uses; callers reslice to [:0] (or resize Dists) at
// acquisition and may store grown slices back before releasing.
type Scratch struct {
	// Cand stages candidate / merged row ids.
	Cand []int
	// Loc stages shard-local answer ids.
	Loc []int
	// Dists stages per-row distance values (δ in the fused Lemma 2.1
	// scan), indexed by row id.
	Dists []float64
	// Probs stages probability values for the π merge.
	Probs []float64
	// Tile lanes for the multi-query kernel (tile.go): per-lane
	// two-smallest-Δ state and the lane-major dense δ block
	// (TileDists[t*n+i] is lane t's δ_i). Sized by TileLanes.
	TileM1, TileM2 []float64
	TileArg        []int
	TileDists      []float64
}

// TileLanes returns the tile kernel's per-lane state sized for T lanes
// over n rows, with every lane's two-smallest-Δ state initialized
// (m1 = m2 = +Inf, arg1 = -1) exactly as the scalar scan starts. The
// δ block is uninitialized — the kernel writes each staged entry before
// the filter reads it.
func (s *Scratch) TileLanes(T, n int) (m1, m2 []float64, arg1 []int, deltas []float64) {
	if cap(s.TileM1) < T {
		s.TileM1 = make([]float64, T)
		s.TileM2 = make([]float64, T)
		s.TileArg = make([]int, T)
	}
	m1, m2, arg1 = s.TileM1[:T], s.TileM2[:T], s.TileArg[:T]
	for t := 0; t < T; t++ {
		inf := math.Inf(1)
		m1[t], m2[t], arg1[t] = inf, inf, -1
	}
	if cap(s.TileDists) < T*n {
		s.TileDists = make([]float64, T*n)
	}
	deltas = s.TileDists[:T*n]
	return m1, m2, arg1, deltas
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch leases a scratch arena from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch arena to the pool. The caller must not
// retain any of its buffers (results must be copied out first).
func PutScratch(s *Scratch) { scratchPool.Put(s) }
