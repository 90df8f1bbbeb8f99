package resource

import (
	"fmt"
	"math"
	"sort"
)

// Axis is one sweepable dimension of a resource grid: the sample points the
// profiling driver will visit along a single resource kind (Section 5).
type Axis struct {
	Kind   Kind
	Points []float64
}

// Linspace returns n evenly spaced points in [lo, hi] inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	pts := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range pts {
		pts[i] = lo + float64(i)*step
	}
	return pts
}

// Logspace returns n logarithmically spaced points in [lo, hi] inclusive.
// lo and hi must be positive.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("resource: Logspace requires positive bounds")
	}
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	pts := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	step := (lhi - llo) / float64(n-1)
	for i := range pts {
		pts[i] = math.Exp(llo + float64(i)*step)
	}
	return pts
}

// Grid is a cartesian product of axes: the lattice of resource conditions
// at which each configuration is sampled in the virtual testbed.
type Grid struct {
	Axes []Axis
}

// NewGrid builds a grid from axes, sorting each axis's points ascending and
// removing duplicates.
func NewGrid(axes ...Axis) *Grid {
	g := &Grid{Axes: make([]Axis, len(axes))}
	for i, ax := range axes {
		pts := append([]float64(nil), ax.Points...)
		sort.Float64s(pts)
		uniq := pts[:0]
		for _, p := range pts {
			if len(uniq) == 0 || !approxEqual(uniq[len(uniq)-1], p) {
				uniq = append(uniq, p)
			}
		}
		g.Axes[i] = Axis{Kind: ax.Kind, Points: uniq}
	}
	return g
}

// Size returns the number of lattice points.
func (g *Grid) Size() int {
	n := 1
	for _, ax := range g.Axes {
		n *= len(ax.Points)
	}
	if len(g.Axes) == 0 {
		return 0
	}
	return n
}

// Points enumerates every lattice point in deterministic order (last axis
// varies fastest).
func (g *Grid) Points() []Vector {
	if len(g.Axes) == 0 {
		return nil
	}
	out := make([]Vector, 0, g.Size())
	idx := make([]int, len(g.Axes))
	for {
		v := make(Vector, len(g.Axes))
		for i, ax := range g.Axes {
			v[ax.Kind] = ax.Points[idx[i]]
		}
		out = append(out, v)
		// odometer increment, last axis fastest
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(g.Axes[i].Points) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out
}

// Neighbors returns, for each dimension of q present in the grid, the two
// lattice values bracketing q (equal if q sits on a lattice point or
// outside the range). Used for multilinear interpolation.
func (g *Grid) Neighbors(q Vector) (lo, hi Vector, err error) {
	lo, hi = Vector{}, Vector{}
	for _, ax := range g.Axes {
		x, ok := q[ax.Kind]
		if !ok {
			return nil, nil, fmt.Errorf("resource: query missing dimension %s", ax.Kind)
		}
		lo[ax.Kind], hi[ax.Kind] = x, x
		if len(ax.Points) > 0 {
			l, h := ax.Bracket(x)
			lo[ax.Kind], hi[ax.Kind] = ax.Points[l], ax.Points[h]
		}
	}
	return lo, hi, nil
}

// Bracket returns the indices of the nearest lattice values below and
// above x (clamped to the ends of the axis, equal when x sits on a lattice
// point). The axis must be non-empty with its points sorted ascending, as
// NewGrid leaves them.
func (ax Axis) Bracket(x float64) (lo, hi int) {
	pts := ax.Points
	i := sort.SearchFloat64s(pts, x)
	switch {
	case i == 0:
		return 0, 0
	case i == len(pts):
		return i - 1, i - 1
	case approxEqual(pts[i], x):
		return i, i
	default:
		return i - 1, i
	}
}

// Contains reports whether q lies within the grid's bounding box on every
// grid dimension.
func (g *Grid) Contains(q Vector) bool {
	for _, ax := range g.Axes {
		x, ok := q[ax.Kind]
		if !ok {
			return false
		}
		if len(ax.Points) == 0 {
			return false
		}
		if x < ax.Points[0]-1e-12 || x > ax.Points[len(ax.Points)-1]+1e-12 {
			return false
		}
	}
	return true
}
