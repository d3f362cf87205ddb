package geom

import "math"

// Rect is an axis-aligned rectangle [Min.X, Max.X] x [Min.Y, Max.Y].
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity for Union: an inverted rectangle.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// RectAround returns the smallest rectangle containing all pts.
func RectAround(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Extend(p)
	}
	return r
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Extend grows r to include p.
func (r Rect) Extend(p Point) Rect {
	return Rect{
		Min: Point{min(r.Min.X, p.X), min(r.Min.Y, p.Y)},
		Max: Point{max(r.Max.X, p.X), max(r.Max.Y, p.Y)},
	}
}

// Union returns the smallest rectangle containing r and o.
func (r Rect) Union(o Rect) Rect {
	if o.IsEmpty() {
		return r
	}
	if r.IsEmpty() {
		return o
	}
	return r.Extend(o.Min).Extend(o.Max)
}

// Inflate grows r by m on every side.
func (r Rect) Inflate(m float64) Rect {
	return Rect{Point{r.Min.X - m, r.Min.Y - m}, Point{r.Max.X + m, r.Max.Y + m}}
}

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Overlaps reports whether the closed rectangles r and o intersect.
func (r Rect) Overlaps(o Rect) bool {
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point { return Midpoint(r.Min, r.Max) }

// Diag returns the diagonal length of r.
func (r Rect) Diag() float64 { return r.Min.Dist(r.Max) }

// DistToPoint returns the distance from p to the rectangle (0 if inside).
func (r Rect) DistToPoint(p Point) float64 {
	dx := max(0, max(r.Min.X-p.X, p.X-r.Max.X))
	dy := max(0, max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// MaxDistToPoint returns the largest distance from p to a point of r.
func (r Rect) MaxDistToPoint(p Point) float64 {
	dx := max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// Corners returns the four corners of r in CCW order.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// DistToPointLinf returns the Chebyshev distance from p to the rectangle
// (0 if inside).
func (r Rect) DistToPointLinf(p Point) float64 {
	dx := max(0, max(r.Min.X-p.X, p.X-r.Max.X))
	dy := max(0, max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	if dx > dy {
		return dx
	}
	return dy
}
