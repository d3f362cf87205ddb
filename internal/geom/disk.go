package geom

import "math"

// Disk is a closed disk with center C and radius R >= 0.
type Disk struct {
	C Point
	R float64
}

// DiskAt is shorthand for Disk{Point{x,y}, r}.
func DiskAt(x, y, r float64) Disk { return Disk{Point{x, y}, r} }

// Contains reports whether p lies in the closed disk.
func (d Disk) Contains(p Point) bool { return d.C.Dist2(p) <= d.R*d.R }

// ContainsDisk reports whether o lies entirely inside the closed disk d.
func (d Disk) ContainsDisk(o Disk) bool { return d.C.Dist(o.C)+o.R <= d.R }

// Intersects reports whether the closed disks d and o share a point.
func (d Disk) Intersects(o Disk) bool { return d.C.Dist(o.C) <= d.R+o.R }

// Bounds returns the bounding rectangle of d.
func (d Disk) Bounds() Rect {
	return Rect{Point{d.C.X - d.R, d.C.Y - d.R}, Point{d.C.X + d.R, d.C.Y + d.R}}
}

// Area returns the area of d.
func (d Disk) Area() float64 { return math.Pi * d.R * d.R }

// MinDist returns the minimum distance from q to the disk
// (delta_i(q) in the paper): max{|q-C| - R, 0}.
func (d Disk) MinDist(q Point) float64 {
	return max(q.Dist(d.C)-d.R, 0)
}

// MaxDist returns the maximum distance from q to the disk
// (Delta_i(q) in the paper): |q-C| + R.
func (d Disk) MaxDist(q Point) float64 { return q.Dist(d.C) + d.R }

// IntersectCircle returns the intersection points of the two circle
// boundaries. n is 0, 1 or 2; for n==1 both points coincide.
func (d Disk) IntersectCircle(o Disk) (p1, p2 Point, n int) {
	dist := d.C.Dist(o.C)
	if dist > d.R+o.R || dist < math.Abs(d.R-o.R) || dist == 0 {
		return Point{}, Point{}, 0
	}
	// a = distance from d.C to the radical line along the center line.
	a := (dist*dist + d.R*d.R - o.R*o.R) / (2 * dist)
	h2 := d.R*d.R - a*a
	if h2 < 0 {
		if h2 > -Eps*d.R*d.R {
			h2 = 0
		} else {
			return Point{}, Point{}, 0
		}
	}
	h := math.Sqrt(h2)
	u := o.C.Sub(d.C).Scale(1 / dist)
	m := d.C.Add(u.Scale(a))
	perp := u.Rot90().Scale(h)
	if h == 0 {
		return m, m, 1
	}
	return m.Add(perp), m.Sub(perp), 2
}

// LensArea returns the area of the intersection of the two disks, using
// the standard circular-lens formula. It is the building block of the
// distance cdf G_{q,i} for uniform-disk pdfs (Figure 1 of the paper).
func (d Disk) LensArea(o Disk) float64 {
	dist := d.C.Dist(o.C)
	if dist >= d.R+o.R {
		return 0
	}
	small, big := d.R, o.R
	if small > big {
		small, big = big, small
	}
	if dist <= big-small {
		return math.Pi * small * small
	}
	r, R := d.R, o.R
	d2 := dist * dist
	a1 := r * r * safeAcos((d2+r*r-R*R)/(2*dist*r))
	a2 := R * R * safeAcos((d2+R*R-r*r)/(2*dist*R))
	t := (-dist + r + R) * (dist + r - R) * (dist - r + R) * (dist + r + R)
	if t < 0 {
		t = 0
	}
	return a1 + a2 - 0.5*math.Sqrt(t)
}

func safeAcos(x float64) float64 {
	if x > 1 {
		x = 1
	} else if x < -1 {
		x = -1
	}
	return math.Acos(x)
}

// CircleSegmentIntersections returns the parameters t in [0,1] at which
// segment s crosses the boundary circle of d, in increasing order.
func (d Disk) CircleSegmentIntersections(s Segment) []float64 {
	f := s.A.Sub(d.C)
	dir := s.B.Sub(s.A)
	a := dir.Norm2()
	if a == 0 {
		return nil
	}
	b := 2 * f.Dot(dir)
	c := f.Norm2() - d.R*d.R
	disc := b*b - 4*a*c
	if disc < 0 {
		return nil
	}
	sq := math.Sqrt(disc)
	var out []float64
	for _, t := range []float64{(-b - sq) / (2 * a), (-b + sq) / (2 * a)} {
		if t >= 0 && t <= 1 {
			if len(out) == 1 && out[0] == t {
				continue
			}
			out = append(out, t)
		}
	}
	return out
}
