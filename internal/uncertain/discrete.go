package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"unn/internal/geom"
)

// Discrete is an uncertain point with a finite location set: P is at
// Locs[j] with probability W[j] ("discrete distribution of description
// complexity k", §1.1). Weights sum to 1 after construction.
type Discrete struct {
	Locs []geom.Point
	W    []float64
	cum  []float64
}

// NewDiscrete validates locations/weights and normalizes the weights.
func NewDiscrete(locs []geom.Point, w []float64) (*Discrete, error) {
	if len(locs) == 0 || len(locs) != len(w) {
		return nil, fmt.Errorf("uncertain: discrete needs matching non-empty locations and weights")
	}
	for _, l := range locs {
		if math.IsNaN(l.X) || math.IsNaN(l.Y) || math.IsInf(l.X, 0) || math.IsInf(l.Y, 0) {
			return nil, fmt.Errorf("uncertain: non-finite location %v", l)
		}
	}
	total := 0.0
	for _, v := range w {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("uncertain: location probabilities must be positive and finite (got %v)", v)
		}
		total += v
	}
	d := &Discrete{
		Locs: append([]geom.Point(nil), locs...),
		W:    make([]float64, len(w)),
		cum:  make([]float64, len(w)),
	}
	run := 0.0
	for i, v := range w {
		d.W[i] = v / total
		run += d.W[i]
		d.cum[i] = run
	}
	return d, nil
}

// UniformDiscrete builds a discrete point with equal weights 1/k.
func UniformDiscrete(locs []geom.Point) *Discrete {
	w := make([]float64, len(locs))
	for i := range w {
		w[i] = 1
	}
	d, err := NewDiscrete(locs, w)
	if err != nil {
		panic(err) // only possible for empty input; callers pass k >= 1
	}
	return d
}

// K returns the description complexity (number of locations).
func (d *Discrete) K() int { return len(d.Locs) }

// Support implements Point.
func (d *Discrete) Support() geom.Rect { return geom.RectAround(d.Locs...) }

// MinDist implements Point: δ(q) = min_j d(q, p_j) — the value of the
// nearest-point Voronoi surface of the location set (§2.2).
func (d *Discrete) MinDist(q geom.Point) float64 {
	best := math.Inf(1)
	for _, p := range d.Locs {
		best = min(best, q.Dist(p))
	}
	return best
}

// MaxDist implements Point: Δ(q) = max_j d(q, p_j) — the farthest-point
// Voronoi surface of the location set (§2.2).
func (d *Discrete) MaxDist(q geom.Point) float64 {
	best := 0.0
	for _, p := range d.Locs {
		best = max(best, q.Dist(p))
	}
	return best
}

// DistCDF implements Point: G_q(r) = Σ_{d(p_j,q) ≤ r} w_j, exactly as in
// Eq. (2).
func (d *Discrete) DistCDF(q geom.Point, r float64) float64 {
	total := 0.0
	for j, p := range d.Locs {
		if q.Dist(p) <= r {
			total += d.W[j]
		}
	}
	return total
}

// Sample implements Point in O(log k) by binary search on cumulative
// weights (the paper's "balanced binary tree" preprocessing, §4.2).
func (d *Discrete) Sample(rng *rand.Rand) geom.Point {
	u := rng.Float64()
	idx := sort.SearchFloat64s(d.cum, u)
	if idx >= len(d.Locs) {
		idx = len(d.Locs) - 1
	}
	return d.Locs[idx]
}

// Centroid returns the weighted mean location (the reduction point of the
// expected squared-distance NN of [AESZ12]).
func (d *Discrete) Centroid() geom.Point {
	var c geom.Point
	for j, p := range d.Locs {
		c = c.Add(p.Scale(d.W[j]))
	}
	return c
}

// Variance returns E‖P − centroid‖², the additive constant of the
// squared-distance reduction: E‖q−P‖² = ‖q−c‖² + Var.
func (d *Discrete) Variance() float64 {
	c := d.Centroid()
	v := 0.0
	for j, p := range d.Locs {
		v += d.W[j] * p.Dist2(c)
	}
	return v
}

// ExpectedDist returns E d(q, P) = Σ_j w_j d(q, p_j).
func (d *Discrete) ExpectedDist(q geom.Point) float64 {
	e := 0.0
	for j, p := range d.Locs {
		e += d.W[j] * q.Dist(p)
	}
	return e
}

// EnclosingDisk returns the smallest disk containing all locations.
func (d *Discrete) EnclosingDisk() geom.Disk {
	return geom.SmallestEnclosingDisk(d.Locs, nil)
}

// SpreadRatio returns max_j w_j / min_j w_j, the per-point contribution to
// the spread ρ of Eq. (9).
func (d *Discrete) SpreadRatio() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, w := range d.W {
		lo, hi = min(lo, w), max(hi, w)
	}
	return hi / lo
}

// Discretize draws m samples from any uncertain point and packages them
// as a uniform discrete point — the continuous→discrete reduction of
// Theorem 4.5 (sample size k(α) = (c/α²) log(1/δ') per Lemma 4.4).
func Discretize(p Point, m int, rng *rand.Rand) *Discrete {
	locs := make([]geom.Point, m)
	for i := range locs {
		locs[i] = p.Sample(rng)
	}
	return UniformDiscrete(locs)
}

// SampleSizeForError returns the per-point sample size k(α) with α = ε/2n
// prescribed by Theorem 4.5 for additive error ε with failure probability
// δ, with the constant c set to 0.5 (the Dvoretzky–Kiefer–Wolfowitz
// constant, ample for the balls range space).
func SampleSizeForError(n int, eps, delta float64) int {
	alpha := eps / (2 * float64(n))
	deltaP := delta / (2 * float64(n))
	k := 0.5 / (alpha * alpha) * math.Log(2/deltaP)
	if k < 1 {
		k = 1
	}
	return int(math.Ceil(k))
}
