// Package uncertain defines the input model of the paper: uncertain
// points in the plane whose locations are probability distributions.
//
// Two families are supported, mirroring §1.1:
//
//   - continuous pdfs with bounded support (the uncertainty region):
//     uniform on a disk, Gaussian truncated to a disk (as in [BSI08,
//     CCMC08]), and grid histograms (the paper's non-parametric case);
//   - discrete distributions {(p_1,w_1),...,(p_k,w_k)} with Σw = 1
//     ("description complexity k").
//
// Every distribution exposes the three quantities the algorithms consume:
// the extreme distances δ(q) = min_{p∈Sup} d(q,p) and Δ(q) = max d(q,p)
// (Section 2), the distance cdf G_q(r) = Pr[d(q,P) ≤ r] (Eq. (1)/(2) and
// Figure 1), and random instantiation (Section 4.2).
package uncertain

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"unn/internal/geom"
)

// Point is an uncertain point.
type Point interface {
	// Support returns a bounding rectangle of the uncertainty region.
	Support() geom.Rect
	// MinDist returns δ(q), the minimum possible distance from q.
	MinDist(q geom.Point) float64
	// MaxDist returns Δ(q), the maximum possible distance from q.
	MaxDist(q geom.Point) float64
	// DistCDF returns G_q(r) = Pr[d(q, P) ≤ r].
	DistCDF(q geom.Point, r float64) float64
	// Sample draws one instantiation of the point.
	Sample(rng *rand.Rand) geom.Point
}

// DistPDF numerically differentiates the distance cdf; it reproduces the
// density g_{q,i} of Figure 1.
func DistPDF(p Point, q geom.Point, r, h float64) float64 {
	return (p.DistCDF(q, r+h) - p.DistCDF(q, r-h)) / (2 * h)
}

// ---------------------------------------------------------------------------
// Uniform distribution on a disk.

// UniformDisk is the uniform distribution on a closed disk — the model of
// the paper's running example (Figure 1).
type UniformDisk struct {
	D geom.Disk
}

// Support implements Point.
func (u UniformDisk) Support() geom.Rect { return u.D.Bounds() }

// MinDist implements Point: δ(q) = max(d(q,c) − R, 0).
func (u UniformDisk) MinDist(q geom.Point) float64 { return u.D.MinDist(q) }

// MaxDist implements Point: Δ(q) = d(q,c) + R.
func (u UniformDisk) MaxDist(q geom.Point) float64 { return u.D.MaxDist(q) }

// DistCDF implements Point: the mass of the disk inside B(q, r), i.e. the
// circular-lens area ratio.
func (u UniformDisk) DistCDF(q geom.Point, r float64) float64 {
	if r <= 0 {
		return 0
	}
	a := u.D.Area()
	if a == 0 {
		if q.Dist(u.D.C) <= r {
			return 1
		}
		return 0
	}
	return u.D.LensArea(geom.Disk{C: q, R: r}) / a
}

// Sample implements Point by polar inversion.
func (u UniformDisk) Sample(rng *rand.Rand) geom.Point {
	t := 2 * math.Pi * rng.Float64()
	rr := u.D.R * math.Sqrt(rng.Float64())
	return u.D.C.Add(geom.Dir(t).Scale(rr))
}

// ---------------------------------------------------------------------------
// Gaussian truncated to a disk.

// TruncGauss is an isotropic Gaussian centered at the disk center,
// truncated to the disk (the standard bounded-support Gaussian model the
// paper adopts from [BSI08, CCMC08]).
type TruncGauss struct {
	D     geom.Disk
	Sigma float64
	// mass memoizes the un-truncated Gaussian mass inside D.
	mass float64
}

// NewTruncGauss builds a truncated Gaussian with the given sigma.
func NewTruncGauss(d geom.Disk, sigma float64) *TruncGauss {
	// For an isotropic Gaussian, the mass within radius R of the mean is
	// 1 − exp(−R²/2σ²) (Rayleigh distribution of the radius).
	m := 1 - math.Exp(-(d.R*d.R)/(2*sigma*sigma))
	return &TruncGauss{D: d, Sigma: sigma, mass: m}
}

// Support implements Point.
func (g *TruncGauss) Support() geom.Rect { return g.D.Bounds() }

// MinDist implements Point.
func (g *TruncGauss) MinDist(q geom.Point) float64 { return g.D.MinDist(q) }

// MaxDist implements Point.
func (g *TruncGauss) MaxDist(q geom.Point) float64 { return g.D.MaxDist(q) }

// DistCDF implements Point by two-dimensional numeric integration of the
// truncated density over B(q, r) ∩ D in polar coordinates around the
// Gaussian mean. The integrand is smooth; 96×96 panels give ~1e-6
// accuracy at the scales used in the experiments.
func (g *TruncGauss) DistCDF(q geom.Point, r float64) float64 {
	if r <= g.MinDist(q) {
		return 0
	}
	if r >= g.MaxDist(q) {
		return 1
	}
	const nt, nr = 96, 96
	qc := geom.Disk{C: q, R: r}
	total := 0.0
	s2 := 2 * g.Sigma * g.Sigma
	for it := 0; it < nt; it++ {
		theta := (float64(it) + 0.5) / nt * 2 * math.Pi
		u := geom.Dir(theta)
		for ir := 0; ir < nr; ir++ {
			rho := (float64(ir) + 0.5) / nr * g.D.R
			p := g.D.C.Add(u.Scale(rho))
			if !qc.Contains(p) {
				continue
			}
			w := math.Exp(-rho*rho/s2) * rho
			total += w
		}
	}
	cell := (2 * math.Pi / nt) * (g.D.R / nr)
	total *= cell / (2 * math.Pi * g.Sigma * g.Sigma) // normalize the full Gaussian
	return min(total/g.mass, 1)
}

// Sample implements Point by rejection from the untruncated Gaussian.
func (g *TruncGauss) Sample(rng *rand.Rand) geom.Point {
	for i := 0; i < 4096; i++ {
		p := g.D.C.Add(geom.Pt(rng.NormFloat64()*g.Sigma, rng.NormFloat64()*g.Sigma))
		if g.D.Contains(p) {
			return p
		}
	}
	// Pathological sigma ≫ R: fall back to uniform on the disk.
	return UniformDisk{g.D}.Sample(rng)
}

// ---------------------------------------------------------------------------
// Grid histogram.

// Histogram is a non-parametric pdf given as per-cell masses on a uniform
// grid (the paper's histogram case of §1.1). Weights are normalized at
// construction.
type Histogram struct {
	Origin geom.Point
	CellW  float64
	CellH  float64
	W      [][]float64 // W[row][col], row-major from Origin upward
	cum    []float64   // flattened cumulative masses for sampling
	box    geom.Rect
}

// NewHistogram validates and normalizes the cell masses.
func NewHistogram(origin geom.Point, cellW, cellH float64, w [][]float64) (*Histogram, error) {
	if cellW <= 0 || cellH <= 0 || len(w) == 0 {
		return nil, fmt.Errorf("uncertain: invalid histogram geometry")
	}
	total := 0.0
	for _, row := range w {
		if len(row) != len(w[0]) {
			return nil, fmt.Errorf("uncertain: ragged histogram")
		}
		for _, v := range row {
			if v < 0 || math.IsNaN(v) {
				return nil, fmt.Errorf("uncertain: negative cell mass")
			}
			total += v
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("uncertain: zero total mass")
	}
	h := &Histogram{Origin: origin, CellW: cellW, CellH: cellH}
	h.W = make([][]float64, len(w))
	for i, row := range w {
		h.W[i] = make([]float64, len(row))
		for j, v := range row {
			h.W[i][j] = v / total
		}
	}
	h.box = geom.EmptyRect()
	for i, row := range h.W {
		for j, v := range row {
			if v > 0 {
				h.box = h.box.Union(h.cellRect(i, j))
			}
		}
	}
	for _, row := range h.W {
		for _, v := range row {
			last := 0.0
			if len(h.cum) > 0 {
				last = h.cum[len(h.cum)-1]
			}
			h.cum = append(h.cum, last+v)
		}
	}
	return h, nil
}

func (h *Histogram) cellRect(i, j int) geom.Rect {
	lo := geom.Pt(h.Origin.X+float64(j)*h.CellW, h.Origin.Y+float64(i)*h.CellH)
	return geom.Rect{Min: lo, Max: geom.Pt(lo.X+h.CellW, lo.Y+h.CellH)}
}

// Support implements Point (bounding box of the positive-mass cells).
func (h *Histogram) Support() geom.Rect { return h.box }

// MinDist implements Point.
func (h *Histogram) MinDist(q geom.Point) float64 {
	best := math.Inf(1)
	for i, row := range h.W {
		for j, v := range row {
			if v > 0 {
				best = min(best, h.cellRect(i, j).DistToPoint(q))
			}
		}
	}
	return best
}

// MaxDist implements Point.
func (h *Histogram) MaxDist(q geom.Point) float64 {
	best := 0.0
	for i, row := range h.W {
		for j, v := range row {
			if v > 0 {
				best = max(best, h.cellRect(i, j).MaxDistToPoint(q))
			}
		}
	}
	return best
}

// DistCDF implements Point: per cell, fully-inside/outside tests plus an
// 8×8 subgrid for boundary cells.
func (h *Histogram) DistCDF(q geom.Point, r float64) float64 {
	total := 0.0
	for i, row := range h.W {
		for j, v := range row {
			if v == 0 {
				continue
			}
			rect := h.cellRect(i, j)
			switch {
			case rect.MaxDistToPoint(q) <= r:
				total += v
			case rect.DistToPoint(q) >= r:
				// no mass
			default:
				const sub = 8
				in := 0
				for a := 0; a < sub; a++ {
					for b := 0; b < sub; b++ {
						p := geom.Pt(
							rect.Min.X+(float64(b)+0.5)/sub*h.CellW,
							rect.Min.Y+(float64(a)+0.5)/sub*h.CellH,
						)
						if p.Dist(q) <= r {
							in++
						}
					}
				}
				total += v * float64(in) / (sub * sub)
			}
		}
	}
	return min(total, 1)
}

// Sample implements Point: pick a cell by cumulative mass, uniform inside.
func (h *Histogram) Sample(rng *rand.Rand) geom.Point {
	u := rng.Float64()
	idx := sort.SearchFloat64s(h.cum, u)
	if idx >= len(h.cum) {
		idx = len(h.cum) - 1
	}
	cols := len(h.W[0])
	i, j := idx/cols, idx%cols
	rect := h.cellRect(i, j)
	return geom.Pt(
		rect.Min.X+rng.Float64()*h.CellW,
		rect.Min.Y+rng.Float64()*h.CellH,
	)
}
