package geom

import (
	"fmt"
	"math"
)

// Octagon is an octilinear convex region: the intersection of half-planes
// whose boundaries have slope 0, ∞, +1 or −1. These are the feasible
// merging regions of bounded-skew clock routing (references [8] and [9] of
// the paper):
//
//	XLo ≤ x ≤ XHi,  YLo ≤ y ≤ YHi,  ULo ≤ x+y ≤ UHi,  VLo ≤ x−y ≤ VHi.
//
// Rectangles (infinite u/v bounds tightened away) and TRRs (infinite x/y
// bounds tightened away) are both special cases. The zero value is not
// meaningful; construct octagons with the provided constructors and keep
// them normalized via Normalize.
type Octagon struct {
	XLo, XHi, YLo, YHi float64
	ULo, UHi, VLo, VHi float64
}

// OctFromTRR converts a TRR into an equivalent (normalized) octagon.
func OctFromTRR(t TRR) Octagon {
	if t.Empty() {
		return EmptyOctagon()
	}
	o := Octagon{
		XLo: math.Inf(-1), XHi: math.Inf(1),
		YLo: math.Inf(-1), YHi: math.Inf(1),
		ULo: t.ULo, UHi: t.UHi, VLo: t.VLo, VHi: t.VHi,
	}
	return o.Normalize()
}

// OctFromPoint returns the singleton octagon {p}.
func OctFromPoint(p Point) Octagon {
	u, v := p.UV()
	return Octagon{p.X, p.X, p.Y, p.Y, u, u, v, v}
}

// OctFromRect returns the axis-aligned rectangle [xlo,xhi]×[ylo,yhi].
func OctFromRect(xlo, ylo, xhi, yhi float64) Octagon {
	o := Octagon{
		XLo: xlo, XHi: xhi, YLo: ylo, YHi: yhi,
		ULo: math.Inf(-1), UHi: math.Inf(1),
		VLo: math.Inf(-1), VHi: math.Inf(1),
	}
	return o.Normalize()
}

// EmptyOctagon returns a canonical empty octagon.
func EmptyOctagon() Octagon {
	return Octagon{XLo: 1, XHi: -1, YLo: 1, YHi: -1, ULo: 1, UHi: -1, VLo: 1, VHi: -1}
}

// Empty reports whether the region contains no points (beyond tolerance).
func (o Octagon) Empty() bool {
	return o.XLo > o.XHi+Eps || o.YLo > o.YHi+Eps ||
		o.ULo > o.UHi+Eps || o.VLo > o.VHi+Eps
}

// Normalize tightens every bound against the others so that each of the
// eight support values is attained by the region. Two passes reach the
// fixpoint for this constraint system; a third is run defensively. An
// empty region is returned as-is.
func (o Octagon) Normalize() Octagon {
	if o.Empty() {
		return o
	}
	for i := 0; i < 3; i++ {
		o.ULo = math.Max(o.ULo, o.XLo+o.YLo)
		o.UHi = math.Min(o.UHi, o.XHi+o.YHi)
		o.VLo = math.Max(o.VLo, o.XLo-o.YHi)
		o.VHi = math.Min(o.VHi, o.XHi-o.YLo)
		o.XLo = math.Max(o.XLo, (o.ULo+o.VLo)/2)
		o.XHi = math.Min(o.XHi, (o.UHi+o.VHi)/2)
		o.YLo = math.Max(o.YLo, (o.ULo-o.VHi)/2)
		o.YHi = math.Min(o.YHi, (o.UHi-o.VLo)/2)
		if o.Empty() {
			return o
		}
	}
	return o
}

// Contains reports whether p lies in the region within tolerance.
func (o Octagon) Contains(p Point) bool {
	u, v := p.UV()
	return p.X >= o.XLo-Eps && p.X <= o.XHi+Eps &&
		p.Y >= o.YLo-Eps && p.Y <= o.YHi+Eps &&
		u >= o.ULo-Eps && u <= o.UHi+Eps &&
		v >= o.VLo-Eps && v <= o.VHi+Eps
}

// Intersect returns the (normalized) intersection of two octagons.
func (o Octagon) Intersect(p Octagon) Octagon {
	r := Octagon{
		XLo: math.Max(o.XLo, p.XLo), XHi: math.Min(o.XHi, p.XHi),
		YLo: math.Max(o.YLo, p.YLo), YHi: math.Min(o.YHi, p.YHi),
		ULo: math.Max(o.ULo, p.ULo), UHi: math.Min(o.UHi, p.UHi),
		VLo: math.Max(o.VLo, p.VLo), VHi: math.Min(o.VHi, p.VHi),
	}
	// Snap pairs that cross within tolerance, as TRR.Intersect does.
	snap := func(lo, hi *float64) {
		if *lo > *hi && *lo <= *hi+Eps {
			m := (*lo + *hi) / 2
			*lo, *hi = m, m
		}
	}
	snap(&r.XLo, &r.XHi)
	snap(&r.YLo, &r.YHi)
	snap(&r.ULo, &r.UHi)
	snap(&r.VLo, &r.VHi)
	if r.Empty() {
		return r
	}
	return r.Normalize()
}

// IntersectTRR intersects the octagon with a TRR.
func (o Octagon) IntersectTRR(t TRR) Octagon {
	return o.Intersect(OctFromTRR(t))
}

// Expand returns the Minkowski sum of the region with a diamond of radius
// r ≥ 0: the set of points within Manhattan distance r of the region. The
// support values of a Minkowski sum add, and the diamond's support is r in
// all eight octilinear directions, so every bound moves outward by r.
func (o Octagon) Expand(r float64) Octagon {
	if r < 0 {
		panic(fmt.Sprintf("geom: Octagon.Expand with negative radius %g", r))
	}
	if o.Empty() {
		return o
	}
	return Octagon{
		XLo: o.XLo - r, XHi: o.XHi + r,
		YLo: o.YLo - r, YHi: o.YHi + r,
		ULo: o.ULo - r, UHi: o.UHi + r,
		VLo: o.VLo - r, VHi: o.VHi + r,
	}
}

// Dist returns the Manhattan distance between two octagons (zero when they
// intersect). For octilinear convex regions the distance is
//
//	max( gap_x + gap_y, gap_u, gap_v )
//
// — the rectangle gaps add (an L1 path must close both), while the diagonal
// gaps act like L∞ in rotated coordinates. The property test in this
// package validates the formula against brute-force sampling.
func (o Octagon) Dist(p Octagon) float64 {
	if o.Empty() || p.Empty() {
		panic("geom: Dist on empty octagon")
	}
	gx := gap(o.XLo, o.XHi, p.XLo, p.XHi)
	gy := gap(o.YLo, o.YHi, p.YLo, p.YHi)
	gu := gap(o.ULo, o.UHi, p.ULo, p.UHi)
	gv := gap(o.VLo, o.VHi, p.VLo, p.VHi)
	return max(gx+gy, gu, gv)
}

// DistPoint returns the Manhattan distance from p to the region.
func (o Octagon) DistPoint(p Point) float64 {
	return o.Dist(OctFromPoint(p))
}

// Vertices returns the vertices of the (normalized, non-empty) octagon in
// counterclockwise order. Each vertex is the intersection of two
// supporting lines that are adjacent in the angular order of their outward
// normals; degenerate regions yield fewer distinct points. The region must
// be bounded (all eight normalized bounds finite).
func (o Octagon) Vertices() []Point {
	if o.Empty() {
		return nil
	}
	o = o.Normalize()
	cand := [8]Point{
		{o.XHi, o.UHi - o.XHi}, // x=XHi ∧ u=UHi
		{o.UHi - o.YHi, o.YHi}, // u=UHi ∧ y=YHi
		{o.VLo + o.YHi, o.YHi}, // y=YHi ∧ v=VLo
		{o.XLo, o.XLo - o.VLo}, // v=VLo ∧ x=XLo
		{o.XLo, o.ULo - o.XLo}, // x=XLo ∧ u=ULo
		{o.ULo - o.YLo, o.YLo}, // u=ULo ∧ y=YLo
		{o.VHi + o.YLo, o.YLo}, // y=YLo ∧ v=VHi
		{o.XHi, o.XHi - o.VHi}, // v=VHi ∧ x=XHi
	}
	var vs []Point
	for _, p := range cand {
		if math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			panic("geom: Vertices on unbounded octagon")
		}
		dup := false
		for _, q := range vs {
			if q.Eq(p) {
				dup = true
				break
			}
		}
		if !dup {
			vs = append(vs, p)
		}
	}
	sortCCW(vs)
	return vs
}

// AnyPoint returns an arbitrary point inside the region (the centroid of
// its vertices, which is interior by convexity).
func (o Octagon) AnyPoint() Point {
	vs := o.Vertices()
	var cx, cy float64
	for _, p := range vs {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(vs))
	return Point{cx / n, cy / n}
}

// ClosestPointTo returns a point of the region minimizing the Manhattan
// distance to p. The optimum of a linear-like objective over a convex
// octilinear region is attained either at p itself (containment), at a
// vertex, or at the Manhattan projection of p onto one of the boundary
// segments; all candidates are enumerated.
func (o Octagon) ClosestPointTo(p Point) Point {
	if o.Contains(p) {
		return p
	}
	vs := o.Vertices()
	best := vs[0]
	bd := Dist(p, best)
	consider := func(q Point) {
		if o.Contains(q) {
			if d := Dist(p, q); d < bd {
				best, bd = q, d
			}
		}
	}
	for _, v := range vs {
		consider(v)
	}
	// Projections onto the supporting lines: clamp p against each pair of
	// bounds, one family at a time, composing with containment checks.
	consider(Point{clamp(p.X, o.XLo, o.XHi), clamp(p.Y, o.YLo, o.YHi)})
	u, v := p.UV()
	consider(FromUV(clamp(u, o.ULo, o.UHi), clamp(v, o.VLo, o.VHi)))
	// Mixed clamps: fix x then resolve u/v, and vice versa.
	px := clamp(p.X, o.XLo, o.XHi)
	consider(Point{px, clamp(p.Y, math.Max(o.YLo, math.Max(o.ULo-px, px-o.VHi)),
		math.Min(o.YHi, math.Min(o.UHi-px, px-o.VLo)))})
	py := clamp(p.Y, o.YLo, o.YHi)
	consider(Point{clamp(p.X, math.Max(o.XLo, math.Max(o.ULo-py, o.VLo+py)),
		math.Min(o.XHi, math.Min(o.UHi-py, o.VHi+py))), py})
	return best
}

// String renders the octagon for diagnostics.
func (o Octagon) String() string {
	if o.Empty() {
		return "Oct(empty)"
	}
	return fmt.Sprintf("Oct(x:[%g,%g] y:[%g,%g] u:[%g,%g] v:[%g,%g])",
		o.XLo, o.XHi, o.YLo, o.YHi, o.ULo, o.UHi, o.VLo, o.VHi)
}

// sortCCW orders points counterclockwise around their centroid.
func sortCCW(ps []Point) {
	if len(ps) < 3 {
		return
	}
	var cx, cy float64
	for _, p := range ps {
		cx += p.X
		cy += p.Y
	}
	cx /= float64(len(ps))
	cy /= float64(len(ps))
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0; j-- {
			ai := math.Atan2(ps[j].Y-cy, ps[j].X-cx)
			aj := math.Atan2(ps[j-1].Y-cy, ps[j-1].X-cx)
			if ai < aj {
				ps[j], ps[j-1] = ps[j-1], ps[j]
			} else {
				break
			}
		}
	}
}
