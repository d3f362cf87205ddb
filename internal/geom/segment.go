package geom

import "math"

// Segment is a closed line segment from A to B.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// Len returns the length of s.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Bounds returns the bounding rectangle of s.
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{min(s.A.X, s.B.X), min(s.A.Y, s.B.Y)},
		Max: Point{max(s.A.X, s.B.X), max(s.A.Y, s.B.Y)},
	}
}

// At returns the point A + t(B-A).
func (s Segment) At(t float64) Point { return Lerp(s.A, s.B, t) }

// Mid returns the midpoint of s.
func (s Segment) Mid() Point { return Midpoint(s.A, s.B) }

// DistToPoint returns the distance from p to the closed segment s.
func (s Segment) DistToPoint(p Point) float64 {
	d := s.B.Sub(s.A)
	l2 := d.Norm2()
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(d) / l2
	t = max(0, min(1, t))
	return p.Dist(s.At(t))
}

// SegIntersection describes how two segments meet.
type SegIntersection struct {
	// OK is true if the segments intersect in at least one point.
	OK bool
	// P is an intersection point (for overlapping collinear segments, one
	// point of the shared portion).
	P Point
	// T, U are the parameters of P along the first and second segment.
	T, U float64
	// Proper is true if the segments cross transversally at an interior
	// point of both.
	Proper bool
	// Overlap is true if the segments are collinear and share a
	// non-degenerate portion.
	Overlap bool
}

// Intersect computes the intersection of segments s and o. Endpoint
// touches are reported with Proper=false. Collinear overlaps set Overlap.
func (s Segment) Intersect(o Segment) SegIntersection {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	diff := o.A.Sub(s.A)

	if denom == 0 {
		// Parallel. Check collinearity.
		if diff.Cross(r) != 0 {
			return SegIntersection{}
		}
		// Collinear: project onto r.
		rl2 := r.Norm2()
		if rl2 == 0 {
			// s is a point.
			if o.DistToPoint(s.A) == 0 {
				return SegIntersection{OK: true, P: s.A}
			}
			return SegIntersection{}
		}
		t0 := diff.Dot(r) / rl2
		t1 := o.B.Sub(s.A).Dot(r) / rl2
		lo, hi := min(t0, t1), max(t0, t1)
		lo, hi = max(lo, 0), min(hi, 1)
		if lo > hi {
			return SegIntersection{}
		}
		p := s.At(lo)
		return SegIntersection{OK: true, P: p, T: lo, Overlap: hi > lo}
	}

	t := diff.Cross(d) / denom
	u := diff.Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return SegIntersection{}
	}
	proper := t > 0 && t < 1 && u > 0 && u < 1
	return SegIntersection{OK: true, P: s.At(t), T: t, U: u, Proper: proper}
}

// YAt returns the y-coordinate of the (non-vertical) segment's supporting
// line at the given x.
func (s Segment) YAt(x float64) float64 {
	if s.A.X == s.B.X {
		return min(s.A.Y, s.B.Y)
	}
	t := (x - s.A.X) / (s.B.X - s.A.X)
	return s.A.Y + t*(s.B.Y-s.A.Y)
}

// Line is the infinite line {(x,y) : A*x + B*y = C}, with (A,B) != (0,0).
type Line struct {
	A, B, C float64
}

// LineThrough returns the line through two distinct points.
func LineThrough(p, q Point) Line {
	d := q.Sub(p)
	n := d.Rot90()
	return Line{A: n.X, B: n.Y, C: n.Dot(p)}
}

// Bisector returns the perpendicular bisector of p and q, oriented so that
// Side(x) < 0 on p's side.
func Bisector(p, q Point) Line {
	d := q.Sub(p)
	m := Midpoint(p, q)
	return Line{A: d.X, B: d.Y, C: d.Dot(m)}
}

// Side returns A*x + B*y - C; its sign tells which side of the line x is on.
func (l Line) Side(p Point) float64 { return l.A*p.X + l.B*p.Y - l.C }

// IntersectLine returns the intersection point of two lines, or false if
// they are parallel.
func (l Line) IntersectLine(m Line) (Point, bool) {
	det := l.A*m.B - l.B*m.A
	if det == 0 {
		return Point{}, false
	}
	x := (l.C*m.B - l.B*m.C) / det
	y := (l.A*m.C - l.C*m.A) / det
	return Point{x, y}, true
}

// ClipToRect clips the line to rectangle r and returns the resulting
// segment, or false if the line misses r.
func (l Line) ClipToRect(r Rect) (Segment, bool) {
	// Liang-Barsky style: parameterize along the dominant direction.
	d := Point{l.B, -l.A} // direction of the line
	var p0 Point
	// A point on the line: solve for the larger coefficient.
	if math.Abs(l.A) >= math.Abs(l.B) {
		p0 = Point{l.C / l.A, 0}
	} else {
		p0 = Point{0, l.C / l.B}
	}
	tmin, tmax := math.Inf(-1), math.Inf(1)
	clip := func(p, q, lo, hi float64) bool {
		if q == 0 {
			return p >= lo && p <= hi
		}
		t0 := (lo - p) / q
		t1 := (hi - p) / q
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		tmin = max(tmin, t0)
		tmax = min(tmax, t1)
		return tmin <= tmax
	}
	if !clip(p0.X, d.X, r.Min.X, r.Max.X) || !clip(p0.Y, d.Y, r.Min.Y, r.Max.Y) {
		return Segment{}, false
	}
	if math.IsInf(tmin, 0) || math.IsInf(tmax, 0) || tmin > tmax {
		return Segment{}, false
	}
	return Segment{p0.Add(d.Scale(tmin)), p0.Add(d.Scale(tmax))}, true
}

// ClipToRect clips the segment to rectangle r (Liang–Barsky). ok is false
// if the segment misses r entirely.
func (s Segment) ClipToRect(r Rect) (Segment, bool) {
	d := s.B.Sub(s.A)
	t0, t1 := 0.0, 1.0
	// Each constraint has the form p*t <= q.
	clip := func(p, q float64) bool {
		if p == 0 {
			return q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return t0 <= t1
	}
	if !clip(-d.X, s.A.X-r.Min.X) || !clip(d.X, r.Max.X-s.A.X) ||
		!clip(-d.Y, s.A.Y-r.Min.Y) || !clip(d.Y, r.Max.Y-s.A.Y) {
		return Segment{}, false
	}
	return Segment{s.At(t0), s.At(t1)}, true
}

// OnRectBoundary reports whether the whole segment lies on one side of
// rectangle r (within tol) — used to discard clipping artifacts.
func (s Segment) OnRectBoundary(r Rect, tol float64) bool {
	for _, side := range []float64{r.Min.X, r.Max.X} {
		if math.Abs(s.A.X-side) <= tol && math.Abs(s.B.X-side) <= tol {
			return true
		}
	}
	for _, side := range []float64{r.Min.Y, r.Max.Y} {
		if math.Abs(s.A.Y-side) <= tol && math.Abs(s.B.Y-side) <= tol {
			return true
		}
	}
	return false
}
