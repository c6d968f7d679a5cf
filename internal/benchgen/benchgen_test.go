package benchgen_test

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/place"
)

func testPlacement(t *testing.T, cells int, seed uint64) *place.Placement {
	t.Helper()
	nl, err := gen.Generate(gen.Params{
		Cells:        cells,
		Pads:         20,
		RentExponent: 0.65,
		PinsPerCell:  3.6,
		AvgNetSize:   3.3,
		MaxAreaPct:   3,
		Seed:         seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	nv := nl.H.NumVertices()
	fx := make([]float64, nv)
	fy := make([]float64, nv)
	for v := 0; v < nv; v++ {
		if nl.H.IsPad(v) {
			fx[v] = float64(nl.CellX[v]) / float64(nl.GridSide) * 100
			fy[v] = float64(nl.CellY[v]) / float64(nl.GridSide) * 100
		} else {
			fx[v], fy[v] = math.NaN(), math.NaN()
		}
	}
	pl, err := place.Place(nl.H, place.Config{Width: 100, Height: 100, FixedX: fx, FixedY: fy},
		rand.New(rand.NewPCG(seed, 77)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	return pl
}

func TestStandardSpecs(t *testing.T) {
	pl := testPlacement(t, 300, 1)
	specs := benchgen.StandardSpecs(pl, "T01S")
	if len(specs) != 8 {
		t.Fatalf("specs = %d, want 8", len(specs))
	}
	var v, h int
	for _, s := range specs {
		if !strings.HasPrefix(s.Name, "T01S") {
			t.Errorf("name %q missing base", s.Name)
		}
		if strings.HasSuffix(s.Name, "_V") {
			v++
		}
		if strings.HasSuffix(s.Name, "_H") {
			h++
		}
	}
	if v != 4 || h != 4 {
		t.Errorf("cut direction split %d/%d, want 4/4", v, h)
	}
}

func TestDeriveWholeChip(t *testing.T) {
	pl := testPlacement(t, 300, 2)
	specs := benchgen.StandardSpecs(pl, "T")
	inst, err := benchgen.Derive(pl, specs[0], 0.02) // block A, vertical cut
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	h := inst.Problem.H
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := inst.Problem.Validate(); err != nil {
		t.Fatalf("problem invalid: %v", err)
	}
	// Whole chip: every non-pad vertex is movable; terminals come from pads.
	wantCells := 0
	for v := 0; v < pl.H.NumVertices(); v++ {
		if !pl.H.IsPad(v) {
			wantCells++
		}
	}
	if inst.Stats.Cells != wantCells {
		t.Errorf("cells = %d, want %d", inst.Stats.Cells, wantCells)
	}
	if inst.Stats.Pads == 0 || inst.Stats.Pads > pl.H.NumPads() {
		t.Errorf("pads = %d, want in (0,%d]", inst.Stats.Pads, pl.H.NumPads())
	}
	if inst.Stats.Cells+inst.Stats.Pads != h.NumVertices() {
		t.Errorf("cells+pads = %d, vertices = %d", inst.Stats.Cells+inst.Stats.Pads, h.NumVertices())
	}
	if inst.Stats.ExternalNets == 0 {
		t.Error("expected external nets from pads")
	}
	// Terminals: zero area, fixed to a single part.
	for v := inst.Stats.Cells; v < h.NumVertices(); v++ {
		if h.Weight(v) != 0 {
			t.Errorf("terminal %d has area %d", v, h.Weight(v))
		}
		if _, ok := inst.Problem.FixedPart(v); !ok {
			t.Errorf("terminal %d not fixed", v)
		}
	}
	if inst.Problem.NumFixed() != inst.Stats.Pads {
		t.Errorf("NumFixed = %d, pads = %d", inst.Problem.NumFixed(), inst.Stats.Pads)
	}
}

func TestDeriveHalfBlockHasPropagatedTerminals(t *testing.T) {
	pl := testPlacement(t, 400, 3)
	specs := benchgen.StandardSpecs(pl, "T")
	// Block B = left half.
	var inst *benchgen.Instance
	for _, s := range specs {
		if strings.Contains(s.Name, "B_L1_V0") && s.Cut == benchgen.Vertical {
			got, err := benchgen.Derive(pl, s, 0.02)
			if err != nil {
				t.Fatalf("Derive: %v", err)
			}
			inst = got
		}
	}
	if inst == nil {
		t.Fatal("block B spec not found")
	}
	// The half block must have substantially more terminals than the chip
	// has pads: cut nets of the placement propagate in.
	if inst.Stats.Pads <= 3 {
		t.Errorf("half block has %d terminals; expected propagated terminals from the other half", inst.Stats.Pads)
	}
	if f := inst.Problem.FixedFraction(); f <= 0 || f >= 1 {
		t.Errorf("fixed fraction = %v", f)
	}
	t.Logf("half-block instance: %+v (fixed fraction %.1f%%)", inst.Stats, 100*inst.Problem.FixedFraction())
}

func TestDeriveTerminalSides(t *testing.T) {
	pl := testPlacement(t, 300, 4)
	spec := benchgen.Spec{
		Name:  "half",
		Block: geometry.Rect{X0: 0, Y0: 0, X1: 50, Y1: 100.01},
		Cut:   benchgen.Vertical, // cutline at x=25
	}
	inst, err := benchgen.Derive(pl, spec, 0.02)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	for i := inst.Stats.Cells; i < inst.Problem.H.NumVertices(); i++ {
		orig := int(inst.CellOf[i])
		part, ok := inst.Problem.FixedPart(i)
		if !ok {
			t.Fatalf("terminal %d not fixed", i)
		}
		x := pl.X[orig]
		if x < 0 {
			x = 0
		}
		if x > 50 {
			x = 50
		}
		want := 0
		if x >= 25 {
			want = 1
		}
		if part != want {
			t.Errorf("terminal for vertex %d at x=%.1f fixed in part %d, want %d", orig, pl.X[orig], part, want)
		}
	}
}

func TestDeriveErrors(t *testing.T) {
	pl := testPlacement(t, 300, 5)
	empty := benchgen.Spec{Name: "empty", Block: geometry.Rect{X0: -10, Y0: -10, X1: -5, Y1: -5}}
	if _, err := benchgen.Derive(pl, empty, 0.02); err == nil {
		t.Error("want error for empty block")
	}
}

func TestDerivedInstanceIsPartitionable(t *testing.T) {
	pl := testPlacement(t, 400, 6)
	specs := benchgen.StandardSpecs(pl, "T")
	inst, err := benchgen.Derive(pl, specs[2], 0.02) // block B vertical
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	res, err := multilevel.Partition(inst.Problem, multilevel.Config{}, rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if err := inst.Problem.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.Cut < 0 {
		t.Errorf("cut = %d", res.Cut)
	}
}

func TestCutDirString(t *testing.T) {
	if benchgen.Vertical.String() != "V" || benchgen.Horizontal.String() != "H" {
		t.Error("CutDir strings wrong")
	}
}

// TestRectContains checks block membership: a block is half-open, so a cell
// on its low edges is inside and one exactly on a high edge is not (it
// becomes a terminal), and blocks that tile the chip never share a cell.
func TestRectContains(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	for _, name := range []string{"corner", "centre", "east", "north"} {
		b.AddCell(name, 1)
	}
	b.AddNet(0, 1, 2, 3)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl := &place.Placement{H: h, X: []float64{0, 5, 10, 5}, Y: []float64{0, 5, 5, 10}, Width: 10, Height: 10}
	spec := benchgen.Spec{Name: "edges", Block: geometry.Rect{X1: 10, Y1: 10}}
	inst, err := benchgen.Derive(pl, spec, 0.5)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if inst.Stats.Cells != 2 || inst.Stats.Pads != 2 || !slices.Equal(inst.CellOf, []int32{0, 1, 2, 3}) {
		t.Errorf("stats %+v, CellOf %v: want cells {0,1} and terminals {2,3} (half-open block)", inst.Stats, inst.CellOf)
	}
}

func TestDeriveQuad(t *testing.T) {
	pl := testPlacement(t, 500, 8)
	block := geometry.Rect{X0: 0, Y0: 0, X1: 50, Y1: 100.01} // left half
	// External cells float in the sibling (right) half of the chip.
	sibling := []geometry.Rect{{X0: 50, Y0: 0, X1: 100.01, Y1: 100.01}}
	inst, err := benchgen.DeriveQuad(pl, "quadB", block, sibling, 0.05)
	if err != nil {
		t.Fatalf("DeriveQuad: %v", err)
	}
	if inst.Problem.K != 4 {
		t.Fatalf("K = %d", inst.Problem.K)
	}
	if err := inst.Problem.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	h := inst.Problem.H
	orSeen := false
	for v := inst.Stats.Cells; v < h.NumVertices(); v++ {
		mask := inst.Problem.MaskOf(v)
		n := mask.Count()
		if n < 1 || n > 4 {
			t.Fatalf("terminal %d mask %b", v, mask)
		}
		if n >= 2 && n < 4 {
			orSeen = true
		}
		if h.Weight(v) != 0 {
			t.Errorf("terminal %d has area", v)
		}
	}
	if !orSeen {
		t.Error("expected at least one OR-region terminal (multi-quadrant mask)")
	}
	// The instance is solvable 4-way.
	rng := rand.New(rand.NewPCG(8, 8))
	initial, err := partition.RandomFeasible(inst.Problem, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	res, err := fm.Refine(inst.Problem, initial, fm.Config{Policy: fm.CLIP})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if err := inst.Problem.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	t.Logf("quad instance: %+v, kway cut=%d", inst.Stats, res.Cut)
}

func TestDeriveQuadErrors(t *testing.T) {
	pl := testPlacement(t, 300, 9)
	empty := geometry.Rect{X0: -5, Y0: -5, X1: -1, Y1: -1}
	if _, err := benchgen.DeriveQuad(pl, "e", empty, nil, 0.05); err == nil {
		t.Error("want error for empty block")
	}
}
