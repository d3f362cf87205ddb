package kernel_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"unn/internal/geom"
	"unn/internal/kernel"
)

// appendNonzeroTiled runs AppendNonzeroTile over qs in chunks of tile
// lanes and returns one answer slice per query.
func appendNonzeroTiled(f *kernel.Flat, qs []geom.Point, tile int, sc *kernel.Scratch) [][]int {
	out := make([][]int, len(qs))
	for lo := 0; lo < len(qs); lo += tile {
		hi := min(lo+tile, len(qs))
		qx := make([]float64, hi-lo)
		qy := make([]float64, hi-lo)
		for t := range qx {
			qx[t], qy[t] = qs[lo+t].X, qs[lo+t].Y
		}
		f.AppendNonzeroTile(qx, qy, out[lo:hi], sc)
	}
	return out
}

// TestTileNonzeroParity: every lane of AppendNonzeroTile must be
// bit-identical to a scalar AppendNonzero call on that query alone,
// across all three row layouts, skewed tile widths, and the n ∈ {0,1}
// special cases.
func TestTileNonzeroParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	scTile := kernel.GetScratch()
	defer kernel.PutScratch(scTile)
	for _, n := range []int{0, 1, 2, 3, 17, 100} {
		flats := []*kernel.Flat{
			kernel.FromDisks(randDisks(rng, n, 20)),
			kernel.FromDiscrete(randDiscrete(rng, max(n, 0), 3, 20)),
			kernel.FromSquares(randSquares(rng, n, 20), kernel.MetricLinf),
			kernel.FromSquares(randSquares(rng, n, 20), kernel.MetricL1),
		}
		qs := randQueries(rng, 37, 20) // 37: exercises ragged final tiles
		for fi, f := range flats {
			for _, tile := range []int{1, 7, 16} {
				got := appendNonzeroTiled(f, qs, tile, scTile)
				for qi, q := range qs {
					want := f.AppendNonzero(q.X, q.Y, nil, sc)
					if !slices.Equal(got[qi], want) {
						t.Fatalf("flat %d n=%d tile=%d q=%v: got %v, want %v",
							fi, n, tile, q, got[qi], want)
					}
				}
			}
		}
	}
}

// TestTileZeroAlloc: a warmed tile scratch answers whole tiles with no
// heap allocation beyond the per-lane result buffers' one-time growth.
func TestTileZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := kernel.FromDisks(randDisks(rng, 64, 20))
	qs := randQueries(rng, 8, 20)
	qx := make([]float64, len(qs))
	qy := make([]float64, len(qs))
	for t := range qs {
		qx[t], qy[t] = qs[t].X, qs[t].Y
	}
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	dsts := make([][]int, len(qs))
	dsts = f.AppendNonzeroTile(qx, qy, dsts, sc) // warm lane buffers
	allocs := testing.AllocsPerRun(100, func() {
		for t := range dsts {
			dsts[t] = dsts[t][:0]
		}
		dsts = f.AppendNonzeroTile(qx, qy, dsts, sc)
	})
	if allocs != 0 {
		t.Fatalf("AppendNonzeroTile allocs/op = %v, want 0", allocs)
	}
}

// FuzzTileParity drives AppendNonzeroTile against the scalar
// AppendNonzero on fuzzer-chosen geometry and tile width: every dataset
// kind, every lane compared element for element.
func FuzzTileParity(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(8), 3.0, 4.0)
	f.Add(int64(42), uint8(1), uint8(1), -1.5, 25.0)
	f.Add(int64(9), uint8(60), uint8(16), 10.0, 10.0)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, tileRaw uint8, qx0, qy0 float64) {
		if math.IsNaN(qx0) || math.IsInf(qx0, 0) || math.IsNaN(qy0) || math.IsInf(qy0, 0) {
			t.Skip()
		}
		n := int(nRaw%64) + 1
		tile := int(tileRaw%17) + 1
		rng := rand.New(rand.NewSource(seed))
		sc := kernel.GetScratch()
		defer kernel.PutScratch(sc)
		qs := append([]geom.Point{geom.Pt(qx0, qy0)}, randQueries(rng, 2*tile, 20)...)

		flats := []*kernel.Flat{
			kernel.FromDisks(randDisks(rng, n, 20)),
			kernel.FromDiscrete(randDiscrete(rng, n, int(nRaw%4)+1, 20)),
			kernel.FromSquares(randSquares(rng, n, 20), kernel.MetricLinf),
			kernel.FromSquares(randSquares(rng, n, 20), kernel.MetricL1),
		}
		for fi, flat := range flats {
			got := appendNonzeroTiled(flat, qs, tile, sc)
			for qi, q := range qs {
				want := flat.AppendNonzero(q.X, q.Y, nil, sc)
				if !slices.Equal(got[qi], want) {
					t.Fatalf("flat %d n=%d tile=%d q=%v: got %v, want %v",
						fi, n, tile, q, got[qi], want)
				}
			}
		}
	})
}
