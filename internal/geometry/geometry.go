// Package geometry models the geometric side of the paper's proposed
// benchmark features: multiple partition geometries (bisection halves,
// quadrisection quadrants, arbitrary rectangles), and terminals assigned to
// regions or exact locations (degenerate regions). A terminal whose region
// overlaps several partition rectangles is allowed in any of them — the
// paper's OR semantics, e.g. "a propagated terminal can be fixed in the two
// left-side quadrants of a quadrisection instance, so that the partitioner
// is free to assign it to either left-side quadrant."
package geometry

import (
	"fmt"

	"repro/internal/partition"
)

// Rect is a closed axis-parallel rectangle; X0 == X1 and/or Y0 == Y1 yields
// a degenerate region (segment or point, used for exact locations).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Point returns the degenerate region at (x, y).
func Point(x, y float64) Rect { return Rect{x, y, x, y} }

// Valid reports whether the rectangle is non-inverted.
func (r Rect) Valid() bool { return r.X0 <= r.X1 && r.Y0 <= r.Y1 }

// Contains reports whether (x, y) lies in the closed rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x <= r.X1 && y >= r.Y0 && y <= r.Y1
}

// Intersects reports whether the closed rectangles share at least a point.
func (r Rect) Intersects(o Rect) bool {
	return r.X0 <= o.X1 && o.X0 <= r.X1 && r.Y0 <= o.Y1 && o.Y0 <= r.Y1
}

// Center returns the rectangle's midpoint.
func (r Rect) Center() (float64, float64) {
	return (r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2
}

// Layout assigns each partition a rectangle of the layout region. Parts may
// share boundaries; a terminal region on a shared boundary is allowed in all
// touching parts.
type Layout struct {
	Parts []Rect
}

// QuadrisectionOf splits an arbitrary block rectangle into its quadrants
// (bottom-left, bottom-right, top-left, top-right).
func QuadrisectionOf(r Rect) Layout {
	cx, cy := r.Center()
	return Layout{Parts: []Rect{
		{r.X0, r.Y0, cx, cy},
		{cx, r.Y0, r.X1, cy},
		{r.X0, cy, cx, r.Y1},
		{cx, cy, r.X1, r.Y1},
	}}
}

// Validate checks the layout for structural errors.
func (l Layout) Validate() error {
	if len(l.Parts) < 2 || len(l.Parts) > partition.MaxParts {
		return fmt.Errorf("geometry: layout has %d parts, want 2..%d", len(l.Parts), partition.MaxParts)
	}
	for i, r := range l.Parts {
		if !r.Valid() {
			return fmt.Errorf("geometry: part %d rectangle inverted: %+v", i, r)
		}
	}
	return nil
}

// MaskForRegion returns the OR-mask of partitions whose rectangles intersect
// the terminal region. It returns an error when the region touches no
// partition (an unassignable terminal).
func (l Layout) MaskForRegion(r Rect) (partition.Mask, error) {
	var m partition.Mask
	for i, pr := range l.Parts {
		if pr.Intersects(r) {
			m = m.With(i)
		}
	}
	if m == 0 {
		return 0, fmt.Errorf("geometry: region %+v intersects no partition", r)
	}
	return m, nil
}

// PropagationRegion models terminal propagation onto a block in the
// Dunlop-Kernighan sense: the external vertex's own region (its placed
// location as a degenerate rectangle, or the sibling block it currently
// lives in) is clamped into the block, yielding the nearest boundary point
// for a point source and a boundary strip for a region source. A terminal
// whose source region is a tall strip left of a quadrisection block clamps
// to the block's left edge, which intersects both left-side quadrants — the
// paper's OR example.
func PropagationRegion(block, src Rect) Rect {
	return Rect{
		X0: clamp(src.X0, block.X0, block.X1),
		Y0: clamp(src.Y0, block.Y0, block.Y1),
		X1: clamp(src.X1, block.X0, block.X1),
		Y1: clamp(src.Y1, block.Y0, block.Y1),
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
