package place_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/place"
)

func testNetlist(t *testing.T, cells int, seed uint64) *gen.Netlist {
	t.Helper()
	nl, err := gen.Generate(gen.Params{
		Cells:        cells,
		Pads:         16,
		RentExponent: 0.65,
		PinsPerCell:  3.6,
		AvgNetSize:   3.3,
		MaxAreaPct:   3,
		Seed:         seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return nl
}

// padCoords pins pad vertices to their generator periphery position, scaled
// to the chip, leaving cells movable (NaN).
func padCoords(nl *gen.Netlist, w, h float64) ([]float64, []float64) {
	nv := nl.H.NumVertices()
	fx := make([]float64, nv)
	fy := make([]float64, nv)
	for v := 0; v < nv; v++ {
		if nl.H.IsPad(v) {
			fx[v] = float64(nl.CellX[v]) / float64(nl.GridSide) * w
			fy[v] = float64(nl.CellY[v]) / float64(nl.GridSide) * h
		} else {
			fx[v], fy[v] = math.NaN(), math.NaN()
		}
	}
	return fx, fy
}

func TestPlaceBasic(t *testing.T) {
	nl := testNetlist(t, 400, 1)
	fx, fy := padCoords(nl, 100, 100)
	pl, err := place.Place(nl.H, place.Config{Width: 100, Height: 100, FixedX: fx, FixedY: fy},
		rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	for v := 0; v < nl.H.NumVertices(); v++ {
		if pl.X[v] < 0 || pl.X[v] > 100 || pl.Y[v] < 0 || pl.Y[v] > 100 {
			t.Fatalf("vertex %d at (%.1f,%.1f) outside chip", v, pl.X[v], pl.Y[v])
		}
		if nl.H.IsPad(v) && (pl.X[v] != fx[v] || pl.Y[v] != fy[v]) {
			t.Errorf("pad %d moved from (%.1f,%.1f) to (%.1f,%.1f)", v, fx[v], fy[v], pl.X[v], pl.Y[v])
		}
	}
}

func TestPlaceBeatsRandom(t *testing.T) {
	nl := testNetlist(t, 500, 2)
	rng := rand.New(rand.NewPCG(2, 2))
	pl, err := place.Place(nl.H, place.Config{Width: 100, Height: 100}, rng)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	// Random placement of the same netlist.
	randomPl := &place.Placement{
		H:      nl.H,
		X:      make([]float64, nl.H.NumVertices()),
		Y:      make([]float64, nl.H.NumVertices()),
		Width:  100,
		Height: 100,
	}
	for v := range randomPl.X {
		randomPl.X[v] = rng.Float64() * 100
		randomPl.Y[v] = rng.Float64() * 100
	}
	placed, random := pl.HPWL(), randomPl.HPWL()
	t.Logf("HPWL placed=%.0f random=%.0f", placed, random)
	if placed >= random {
		t.Errorf("min-cut placement HPWL %.0f not better than random %.0f", placed, random)
	}
}

func TestPlaceSpreadsCells(t *testing.T) {
	nl := testNetlist(t, 200, 3)
	pl, err := place.Place(nl.H, place.Config{Width: 64, Height: 64}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	// No two cells should share the exact same position too often; count
	// distinct positions.
	type pt struct{ x, y float64 }
	seen := map[pt]int{}
	for v := 0; v < nl.H.NumVertices(); v++ {
		seen[pt{pl.X[v], pl.Y[v]}]++
	}
	if len(seen) < nl.H.NumVertices()/4 {
		t.Errorf("only %d distinct positions for %d vertices", len(seen), nl.H.NumVertices())
	}
}

func TestPlaceTinyInstance(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 5; i++ {
		b.AddVertex(1)
	}
	b.AddNet(0, 1)
	b.AddNet(2, 3, 4)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(h, place.Config{}, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if pl.Width <= 0 || pl.Height <= 0 {
		t.Errorf("default chip dims not set: %v x %v", pl.Width, pl.Height)
	}
}

func TestHPWL(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 3; i++ {
		b.AddVertex(1)
	}
	b.AddNet(0, 1, 2)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pl := &place.Placement{
		H: h,
		X: []float64{0, 4, 2},
		Y: []float64{0, 0, 3},
	}
	if got := pl.HPWL(); got != 7 {
		t.Errorf("HPWL = %v, want 7 (dx=4 + dy=3)", got)
	}
}

func TestPlaceClampsOutOfRangeFixed(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	c0 := b.AddCell("c0", 1)
	c1 := b.AddCell("c1", 1)
	p0 := b.AddPad("p0")
	b.AddNet(c0, c1)
	b.AddNet(c1, p0)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fx := []float64{math.NaN(), math.NaN(), -50} // pad pinned far outside
	fy := []float64{math.NaN(), math.NaN(), 500}
	pl, err := place.Place(h, place.Config{Width: 10, Height: 10, FixedX: fx, FixedY: fy},
		rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if pl.X[p0] != 0 || pl.Y[p0] != 10 {
		t.Errorf("out-of-range pad clamped to (%g,%g), want (0,10)", pl.X[p0], pl.Y[p0])
	}
}

func TestPlaceShortFixedSlices(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	c0 := b.AddCell("c0", 1)
	c1 := b.AddCell("c1", 1)
	b.AddNet(c0, c1)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// FixedX/FixedY shorter than the vertex count: extra vertices movable.
	pl, err := place.Place(h, place.Config{Width: 4, Height: 4, FixedX: []float64{1}, FixedY: []float64{1}},
		rand.New(rand.NewPCG(6, 6)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if pl.X[c0] != 1 || pl.Y[c0] != 1 {
		t.Errorf("short-slice fixed vertex not pinned: (%g,%g)", pl.X[c0], pl.Y[c0])
	}
}

// TestPlaceWorkersDeterministic checks the placer's determinism contract:
// per-region RNGs are derived in region order, so any worker count yields a
// bit-identical placement.
func TestPlaceWorkersDeterministic(t *testing.T) {
	nl := testNetlist(t, 300, 5)
	fx, fy := padCoords(nl, 64, 64)
	var ref *place.Placement
	for _, workers := range []int{1, 2, 8} {
		pl, err := place.Place(nl.H, place.Config{
			Width: 64, Height: 64, FixedX: fx, FixedY: fy, Workers: workers,
		}, rand.New(rand.NewPCG(9, 9)))
		if err != nil {
			t.Fatalf("Place workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = pl
			continue
		}
		for v := 0; v < nl.H.NumVertices(); v++ {
			if pl.X[v] != ref.X[v] || pl.Y[v] != ref.Y[v] {
				t.Fatalf("workers=%d: vertex %d at (%v,%v), want (%v,%v)",
					workers, v, pl.X[v], pl.Y[v], ref.X[v], ref.Y[v])
			}
		}
	}
}

// TestPlaceGolden pins the placer's output on one small generated netlist:
// an FNV-1a hash of every coordinate's bits plus the HPWL, the same at
// Workers 1 and 3. Any change to the region sub-problems, the bisection
// settings or the RNG draws moves it.
func TestPlaceGolden(t *testing.T) {
	const wantHash, wantHPWL = 0x4382c0f10cd85dee, 11398.583333333348
	nl := testNetlist(t, 400, 11)
	fx, fy := padCoords(nl, 80, 80)
	for _, workers := range []int{1, 3} {
		pl, err := place.Place(nl.H, place.Config{
			Width: 80, Height: 80, FixedX: fx, FixedY: fy, Workers: workers,
		}, rand.New(rand.NewPCG(11, 11)))
		if err != nil {
			t.Fatalf("Place workers=%d: %v", workers, err)
		}
		f := fnv.New64a()
		var buf [8]byte
		for v := range pl.X {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pl.X[v]))
			f.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(pl.Y[v]))
			f.Write(buf[:])
		}
		if got, hpwl := f.Sum64(), pl.HPWL(); got != wantHash || hpwl != wantHPWL {
			t.Errorf("workers=%d: hash %#x HPWL %v, want %#x HPWL %v", workers, got, hpwl, uint64(wantHash), wantHPWL)
		}
	}
}
