package geometry_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/partition"
)

func TestRectBasics(t *testing.T) {
	r := geometry.Rect{X0: 1, Y0: 2, X1: 5, Y1: 6}
	if !r.Valid() {
		t.Fatal("valid rect reported invalid")
	}
	if !r.Contains(1, 2) || !r.Contains(5, 6) || !r.Contains(3, 4) {
		t.Error("closed containment wrong")
	}
	if r.Contains(0.9, 4) || r.Contains(3, 6.1) {
		t.Error("containment too loose")
	}
	cx, cy := r.Center()
	if cx != 3 || cy != 4 {
		t.Errorf("center = (%v,%v)", cx, cy)
	}
	p := geometry.Point(2, 3)
	if !p.Valid() || !p.Contains(2, 3) || p.Contains(2, 3.01) {
		t.Error("point semantics wrong")
	}
	inv := geometry.Rect{X0: 5, X1: 1}
	if inv.Valid() {
		t.Error("inverted rect reported valid")
	}
}

func TestRectIntersects(t *testing.T) {
	a := geometry.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}
	cases := []struct {
		b    geometry.Rect
		want bool
	}{
		{geometry.Rect{X0: 1, Y0: 1, X1: 3, Y1: 3}, true},
		{geometry.Rect{X0: 2, Y0: 0, X1: 4, Y1: 2}, true}, // shared edge
		{geometry.Rect{X0: 2, Y0: 2, X1: 3, Y1: 3}, true}, // shared corner
		{geometry.Rect{X0: 2.1, Y0: 0, X1: 3, Y1: 1}, false},
		{geometry.Point(1, 1), true},
		{geometry.Point(5, 5), false},
	}
	for i, c := range cases {
		if got := a.Intersects(c.b); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		if got := c.b.Intersects(a); got != c.want {
			t.Errorf("case %d: not symmetric", i)
		}
	}
}

func TestLayouts(t *testing.T) {
	quad := geometry.QuadrisectionOf(geometry.Rect{X1: 10, Y1: 8})
	if err := quad.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(quad.Parts) != 4 {
		t.Fatalf("quadrisection parts = %d", len(quad.Parts))
	}
	// Order: BL, BR, TL, TR.
	if !quad.Parts[0].Contains(1, 1) || !quad.Parts[1].Contains(9, 1) ||
		!quad.Parts[2].Contains(1, 7) || !quad.Parts[3].Contains(9, 7) {
		t.Errorf("quadrant order wrong: %+v", quad.Parts)
	}
	bad := geometry.Layout{Parts: []geometry.Rect{{X0: 1, X1: 0}}}
	if err := bad.Validate(); err == nil {
		t.Error("want error for bad layout")
	}
}

func TestMaskForRegion(t *testing.T) {
	quad := geometry.QuadrisectionOf(geometry.Rect{X1: 10, Y1: 10})
	// Interior point: one quadrant.
	m, err := quad.MaskForRegion(geometry.Point(2, 2))
	if err != nil || m != partition.Single(0) {
		t.Errorf("BL point mask = %b (%v)", m, err)
	}
	// Point on the horizontal centerline of the left half: both left-side
	// quadrants — the paper's OR example.
	m, err = quad.MaskForRegion(geometry.Point(2, 5))
	if err != nil || m != partition.Single(0).With(2) {
		t.Errorf("left centerline mask = %b (%v)", m, err)
	}
	// Left edge strip spanning the full height: both left quadrants.
	m, err = quad.MaskForRegion(geometry.Rect{X0: 0, Y0: 0, X1: 0, Y1: 10})
	if err != nil || m != partition.Single(0).With(2) {
		t.Errorf("left strip mask = %b (%v)", m, err)
	}
	// The chip center touches all four.
	m, err = quad.MaskForRegion(geometry.Point(5, 5))
	if err != nil || m.Count() != 4 {
		t.Errorf("center mask = %b (%v)", m, err)
	}
	// Disjoint region errors.
	if _, err := quad.MaskForRegion(geometry.Point(20, 20)); err == nil {
		t.Error("want error for unassignable region")
	}
}

func TestPropagationRegion(t *testing.T) {
	block := geometry.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	// Point source inside: stays exact.
	r := geometry.PropagationRegion(block, geometry.Point(3, 4))
	if r != geometry.Point(3, 4) {
		t.Errorf("interior point moved: %+v", r)
	}
	// Point source left of the block: nearest boundary point.
	r = geometry.PropagationRegion(block, geometry.Point(-5, 4))
	if r != geometry.Point(0, 4) {
		t.Errorf("left point -> %+v, want (0,4)", r)
	}
	// Corner source: corner point.
	r = geometry.PropagationRegion(block, geometry.Point(-5, -5))
	if r != geometry.Point(0, 0) {
		t.Errorf("corner -> %+v", r)
	}
	// Region source: a tall sibling strip to the left clamps to the left
	// edge spanning the height -> both left quadrants of a quadrisection.
	sib := geometry.Rect{X0: -10, Y0: 0, X1: -1, Y1: 10}
	r = geometry.PropagationRegion(block, sib)
	want := geometry.Rect{X0: 0, Y0: 0, X1: 0, Y1: 10}
	if r != want {
		t.Fatalf("strip -> %+v, want %+v", r, want)
	}
	quad := geometry.QuadrisectionOf(geometry.Rect{X1: 10, Y1: 10})
	m, err := quad.MaskForRegion(r)
	if err != nil || m != partition.Single(0).With(2) {
		t.Errorf("propagated strip mask = %b (%v), want both left quadrants", m, err)
	}
}

func TestPropagationRegionProperty(t *testing.T) {
	block := geometry.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 71))
		src := geometry.Rect{
			X0: rng.Float64()*40 - 20,
			Y0: rng.Float64()*40 - 20,
		}
		src.X1 = src.X0 + rng.Float64()*10
		src.Y1 = src.Y0 + rng.Float64()*10
		r := geometry.PropagationRegion(block, src)
		// Result is always valid and inside the block.
		if !r.Valid() {
			return false
		}
		return r.X0 >= 0 && r.X1 <= 10 && r.Y0 >= 0 && r.Y1 <= 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
