package gen_test

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

func smallParams(seed uint64) gen.Params {
	return gen.Params{
		Cells:         2000,
		Pads:          60,
		RentExponent:  0.68,
		PinsPerCell:   3.9,
		AvgNetSize:    3.5,
		MacroFraction: 0.001,
		MaxAreaPct:    5,
		Seed:          seed,
	}
}

func TestGenerateBasic(t *testing.T) {
	nl, err := gen.Generate(smallParams(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	h := nl.H
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.NumVertices() != 2060 {
		t.Errorf("vertices = %d, want 2060 (cells+pads)", h.NumVertices())
	}
	if h.NumPads() != 60 {
		t.Errorf("pads = %d, want 60", h.NumPads())
	}
	s := hypergraph.ComputeStats(h)
	if s.AvgNetSize < 2.8 || s.AvgNetSize > 4.2 {
		t.Errorf("avg net size = %.2f, want ~3.5", s.AvgNetSize)
	}
	pinsPerCell := float64(s.Pins) / 2000
	if pinsPerCell < 3.0 || pinsPerCell > 5.0 {
		t.Errorf("pins per cell = %.2f, want ~3.9", pinsPerCell)
	}
	// Heavy-tail areas: largest cell carries a few percent of total area.
	if s.MaxWeightPct < 2 || s.MaxWeightPct > 10 {
		t.Errorf("Max%% = %.2f, want ~5", s.MaxWeightPct)
	}
	// 2-pin nets dominate.
	if s.NetSizeCounts[2] < s.Nets/4 {
		t.Errorf("2-pin nets = %d of %d, want dominant", s.NetSizeCounts[2], s.Nets)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := gen.Generate(smallParams(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := gen.Generate(smallParams(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.H.NumNets() != b.H.NumNets() || a.H.NumPins() != b.H.NumPins() {
		t.Fatalf("same seed, different netlists: %v vs %v", a.H, b.H)
	}
	for e := 0; e < a.H.NumNets(); e++ {
		pa, pb := a.H.Pins(e), b.H.Pins(e)
		if len(pa) != len(pb) {
			t.Fatalf("net %d size differs", e)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("net %d pin %d differs", e, i)
			}
		}
	}
	c, err := gen.Generate(smallParams(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.H.NumPins() == a.H.NumPins() && c.H.NumNets() == a.H.NumNets() {
		// Extremely unlikely for different seeds; both counts identical
		// suggests the seed is ignored.
		t.Error("different seeds produced identical pin/net counts")
	}
}

func TestGenerateZeroAreaPads(t *testing.T) {
	nl, err := gen.Generate(smallParams(2))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nl.H.NumVertices(); v++ {
		if nl.H.IsPad(v) && nl.H.Weight(v) != 0 {
			t.Fatalf("pad %d has area %d", v, nl.H.Weight(v))
		}
	}
}

func TestGridPositionsInRange(t *testing.T) {
	nl, err := gen.Generate(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nl.H.NumVertices(); v++ {
		x, y := nl.CellX[v], nl.CellY[v]
		if x < 0 || y < 0 || x >= nl.GridSide || y >= nl.GridSide {
			t.Fatalf("vertex %d at (%d,%d) outside %d-grid", v, x, y, nl.GridSide)
		}
	}
}

func TestPadPositions(t *testing.T) {
	nl, err := gen.Generate(smallParams(3))
	if err != nil {
		t.Fatal(err)
	}
	x, y := nl.PadPositions()
	if len(x) != nl.H.NumVertices() || len(y) != len(x) {
		t.Fatalf("len = %d, %d, want %d", len(x), len(y), nl.H.NumVertices())
	}
	pads := 0
	for v := range x {
		if !nl.H.IsPad(v) {
			if !math.IsNaN(x[v]) || !math.IsNaN(y[v]) {
				t.Fatalf("cell %d pinned at (%v,%v)", v, x[v], y[v])
			}
			continue
		}
		pads++
		if x[v] != float64(nl.CellX[v]) || y[v] != float64(nl.CellY[v]) {
			t.Fatalf("pad %d at (%v,%v), want (%d,%d)", v, x[v], y[v], nl.CellX[v], nl.CellY[v])
		}
	}
	if pads == 0 {
		t.Fatal("netlist has no pads")
	}
}

// TestRentLocality verifies the generator's central property: geometric
// blocks of the implicit grid expose terminal counts that fit a Rent
// exponent in a plausible band around the target.
func TestRentLocality(t *testing.T) {
	p := smallParams(4)
	p.Cells = 4000
	p.Pads = 0
	nl, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	h := nl.H
	var samples []rentSample
	// Blocks: subdivide the grid into 2^d x 2^d tiles for d = 1..3 and count
	// cells and external nets per tile.
	for d := 1; d <= 3; d++ {
		tiles := 1 << d
		tileOf := func(v int) int {
			tx := nl.CellX[v] * tiles / nl.GridSide
			ty := nl.CellY[v] * tiles / nl.GridSide
			return ty*tiles + tx
		}
		cells := make([]int, tiles*tiles)
		terms := make([]int, tiles*tiles)
		for v := 0; v < h.NumVertices(); v++ {
			cells[tileOf(v)]++
		}
		for e := 0; e < h.NumNets(); e++ {
			seen := map[int]bool{}
			for _, v := range h.Pins(e) {
				seen[tileOf(int(v))] = true
			}
			if len(seen) > 1 {
				for tl := range seen {
					terms[tl]++
				}
			}
		}
		for i := range cells {
			if cells[i] > 0 && terms[i] > 0 {
				samples = append(samples, rentSample{Cells: cells[i], Terminals: terms[i]})
			}
		}
	}
	_, pFit, err := fitRent(samples)
	if err != nil {
		t.Fatalf("fitRent: %v", err)
	}
	t.Logf("fitted Rent exponent = %.3f (target %.2f)", pFit, p.RentExponent)
	if pFit < 0.35 || pFit > 0.95 {
		t.Errorf("fitted Rent exponent %.3f wildly off target %.2f", pFit, p.RentExponent)
	}
}

func TestParamsValidate(t *testing.T) {
	base := smallParams(1)
	bad := []func(*gen.Params){
		func(p *gen.Params) { p.Cells = 2 },
		func(p *gen.Params) { p.Pads = -1 },
		func(p *gen.Params) { p.RentExponent = 1.2 },
		func(p *gen.Params) { p.PinsPerCell = 1 },
		func(p *gen.Params) { p.AvgNetSize = 1 },
		func(p *gen.Params) { p.MacroFraction = 0.5 },
		func(p *gen.Params) { p.MaxAreaPct = 90 },
	}
	for i, mut := range bad {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
		if _, err := gen.Generate(p); err == nil {
			t.Errorf("case %d: Generate should refuse invalid params", i)
		}
	}
}

func TestScaled(t *testing.T) {
	p := smallParams(1).Scaled(0.1)
	if p.Cells != 200 || p.Pads != 6 {
		t.Errorf("scaled: cells=%d pads=%d", p.Cells, p.Pads)
	}
	tiny := smallParams(1).Scaled(0.0001)
	if tiny.Cells < 4 {
		t.Errorf("scaled floor violated: %d", tiny.Cells)
	}
}

func TestIBMPresets(t *testing.T) {
	presets := gen.IBMPresets()
	if len(presets) != 5 {
		t.Fatalf("presets = %d, want 5", len(presets))
	}
	wantCells := []int{12506, 19342, 22853, 27220, 28146}
	for i, pr := range presets {
		if pr.Params.Cells != wantCells[i] {
			t.Errorf("%s cells = %d, want %d", pr.Name, pr.Params.Cells, wantCells[i])
		}
		if err := pr.Params.Validate(); err != nil {
			t.Errorf("%s: %v", pr.Name, err)
		}
	}
	// A scaled-down preset generates cleanly.
	small := presets[0].Params.Scaled(0.05)
	nl, err := gen.Generate(small)
	if err != nil {
		t.Fatalf("Generate(IBM01S scaled): %v", err)
	}
	if err := nl.H.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestPresetByName(t *testing.T) {
	pr, err := gen.PresetByName("IBM03S")
	if err != nil || pr.Name != "IBM03S" {
		t.Errorf("PresetByName: %v %v", pr.Name, err)
	}
	if _, err := gen.PresetByName("nope"); err == nil {
		t.Error("want error for unknown preset")
	}
}

func TestPinResource(t *testing.T) {
	p := smallParams(20)
	p.PinResource = true
	nl, err := gen.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	h := nl.H
	if h.NumResources() != 2 {
		t.Fatalf("resources = %d, want 2", h.NumResources())
	}
	// Resource 1 equals the (deduplicated) pin count, except isolated
	// vertices which carry 1.
	for v := 0; v < h.NumVertices(); v++ {
		want := int64(len(h.NetsOf(v)))
		if want == 0 {
			want = 1
		}
		if got := h.WeightIn(v, 1); got != want {
			t.Fatalf("vertex %d pin resource = %d, want %d", v, got, want)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestMultibalancePartition exercises the proposed format's multibalance
// semantics end to end: area AND pin count both balanced within tolerance.
func TestMultibalancePartition(t *testing.T) {
	p := smallParams(21)
	p.Cells = 1200
	p.PinResource = true
	nl, err := gen.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	prob := partition.NewBipartition(nl.H, 0.05)
	res, err := multilevel.Partition(prob, multilevel.Config{}, rand.New(rand.NewPCG(21, 21)))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if err := prob.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	w := partition.PartWeights(nl.H, res.Assignment, 2)
	for r := 0; r < 2; r++ {
		total := float64(nl.H.TotalWeightIn(r))
		dev := math.Abs(float64(w[0][r])-total/2) / total
		if dev > 0.05 {
			t.Errorf("resource %d imbalance %.3f exceeds tolerance", r, dev)
		}
	}
}
