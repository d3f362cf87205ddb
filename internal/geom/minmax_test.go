package geom

import (
	"math"
	"math/rand"
	"testing"
)

// foldValues are the operands the min/max folds are pinned on: both
// zeros, NaN, both infinities, and random finite values.
func foldValues() []float64 {
	vs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1}
	rng := rand.New(rand.NewSource(0xf01d))
	for range 8 {
		vs = append(vs, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(20)-10)))
	}
	return vs
}

// sameFold reports whether got is the math.Min/math.Max result want: the
// same bits, or both NaN — the builtins return an operand's NaN where
// math.Min/math.Max return the canonical NaN(), and a NaN's payload
// carries no meaning here.
func sameFold(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// infWins reports the one value difference between the builtins and
// math.Min (min true) / math.Max: a NaN against the infinity that the
// math functions let win (math.Min(NaN, -Inf) = -Inf, math.Max(NaN,
// +Inf) = +Inf), where the builtins return NaN. The folds never meet it
// on finite regions: an infinity only enters them as EmptyRect's
// identity (+Inf for a min, -Inf for a max), which is the other sign.
func infWins(a, b float64, isMin bool) bool {
	sign := 1
	if isMin {
		sign = -1
	}
	return (math.IsNaN(a) && math.IsInf(b, sign)) || (math.IsNaN(b) && math.IsInf(a, sign))
}

// checkFold pins one builtin fold result against its math reference.
func checkFold(t *testing.T, tag string, got, a, b float64, isMin bool) {
	t.Helper()
	want := math.Max(a, b)
	if isMin {
		want = math.Min(a, b)
	}
	switch {
	case infWins(a, b, isMin):
		if !math.IsNaN(got) {
			t.Errorf("%s(%v, %v) = %v, want NaN (the builtin's result)", tag, a, b, got)
		}
	case !sameFold(got, want):
		t.Errorf("%s(%v, %v) = %v (%#x), math reference %v (%#x)", tag, a, b,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestExtendMatchesMathMinMax pins Rect.Extend, which folds with the
// builtin min/max, against math.Min/math.Max on every pair of operands:
// bit-identical except for NaN payloads and the infWins pairs.
func TestExtendMatchesMathMinMax(t *testing.T) {
	vs := foldValues()
	for _, a := range vs {
		for _, b := range vs {
			r := Rect{Min: Point{a, b}, Max: Point{a, b}}
			got := r.Extend(Point{b, a})
			checkFold(t, "Extend.Min.X", got.Min.X, a, b, true)
			checkFold(t, "Extend.Min.Y", got.Min.Y, b, a, true)
			checkFold(t, "Extend.Max.X", got.Max.X, a, b, false)
			checkFold(t, "Extend.Max.Y", got.Max.Y, b, a, false)
		}
	}
	// The fold as the region supports run it: from EmptyRect over finite
	// points and NaN, with no infWins pair reachable.
	for _, p := range vs {
		if math.IsInf(p, 0) {
			continue
		}
		got := EmptyRect().Extend(Point{p, p}).Extend(Point{1, -1})
		want := Rect{
			Min: Point{math.Min(math.Min(math.Inf(1), p), 1), math.Min(math.Min(math.Inf(1), p), -1)},
			Max: Point{math.Max(math.Max(math.Inf(-1), p), 1), math.Max(math.Max(math.Inf(-1), p), -1)},
		}
		for i, c := range [][2]float64{{got.Min.X, want.Min.X}, {got.Min.Y, want.Min.Y}, {got.Max.X, want.Max.X}, {got.Max.Y, want.Max.Y}} {
			if !sameFold(c[0], c[1]) {
				t.Errorf("EmptyRect fold over %v: component %d = %v, want %v", p, i, c[0], c[1])
			}
		}
	}
}
