package uncertain

import (
	"math"
	"math/rand"
	"testing"

	"unn/internal/geom"
)

// refMinDist and refMaxDist are Discrete.MinDist/MaxDist folded with
// math.Min/math.Max — the reference the builtin folds must reproduce.
func refMinDist(d *Discrete, q geom.Point) float64 {
	best := math.Inf(1)
	for _, p := range d.Locs {
		best = math.Min(best, q.Dist(p))
	}
	return best
}

func refMaxDist(d *Discrete, q geom.Point) float64 {
	best := 0.0
	for _, p := range d.Locs {
		best = math.Max(best, q.Dist(p))
	}
	return best
}

// TestDistFoldsMatchMathMinMax pins Discrete.MinDist/MaxDist bit for bit
// against the math.Min/math.Max folds, on random points and on queries
// at a location (distance 0), at ±0, NaN and ±Inf coordinates. NaN
// results are compared as NaN: the builtins keep the operand's payload
// where math.Min/math.Max return the canonical NaN(). Locations are
// finite, so a fold never meets a NaN and an infinity together — every
// location's distance to one query is finite, all +Inf, or all NaN.
func TestDistFoldsMatchMathMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd157))
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	specials := []float64{0, negZero, nan, inf, -inf, 1, -3.5}
	for range 50 {
		locs := make([]geom.Point, 1+rng.Intn(5))
		for a := range locs {
			locs[a] = geom.Pt(rng.NormFloat64()*10, rng.NormFloat64()*10)
		}
		d := UniformDiscrete(locs)
		qs := []geom.Point{locs[0], geom.Pt(rng.NormFloat64()*20, rng.NormFloat64()*20)}
		for _, x := range specials {
			for _, y := range specials {
				qs = append(qs, geom.Pt(x, y))
			}
		}
		for _, q := range qs {
			for _, c := range []struct {
				name      string
				got, want float64
			}{
				{"MinDist", d.MinDist(q), refMinDist(d, q)},
				{"MaxDist", d.MaxDist(q), refMaxDist(d, q)},
			} {
				same := math.Float64bits(c.got) == math.Float64bits(c.want) ||
					(math.IsNaN(c.got) && math.IsNaN(c.want))
				if !same {
					t.Fatalf("%s(%v) over %v = %v (%#x), math reference %v (%#x)", c.name, q, locs,
						c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
				}
			}
		}
	}
}
