package place

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// perNetTerminalSubproblem is the region build the placer used before it
// merged terminals: one zero-area terminal per external net, fixed to the
// side the net's external pins vote for, with per-region maps. It draws the
// same tie votes from rng in the same order as subproblem. Test-only
// reference for TestSubproblemPreservesCut.
func perNetTerminalSubproblem(pl *Placement, r region, vertical bool, rng *rand.Rand) (*hypergraph.Hypergraph, []partition.Mask, error) {
	h := pl.H
	inRegion := make(map[int32]int32, len(r.cells)) // vertex -> sub id
	b := hypergraph.NewBuilder(1)
	b.DropSingletons = true
	b.DedupPins = true
	for i, v := range r.cells {
		b.AddVertex(h.Weight(int(v)))
		inRegion[v] = int32(i)
	}
	var masks []partition.Mask
	free := partition.AllParts(2)
	for range r.cells {
		masks = append(masks, free)
	}
	seen := make(map[int32]bool)
	var pins []int
	for _, v := range r.cells {
		for _, en := range h.NetsOf(int(v)) {
			if seen[en] {
				continue
			}
			seen[en] = true
			pins = pins[:0]
			votes := 0
			external := 0
			for _, u := range h.Pins(int(en)) {
				if su, ok := inRegion[u]; ok {
					pins = append(pins, int(su))
					continue
				}
				external++
				if nearerSecond(pl, r, vertical, int(u)) {
					votes++
				} else {
					votes--
				}
			}
			if external > 0 {
				side := 0
				if votes > 0 {
					side = 1
				} else if votes == 0 {
					side = rng.IntN(2)
				}
				t := b.AddVertex(0)
				masks = append(masks, partition.Single(side))
				pins = append(pins, t)
			}
			if len(pins) >= 2 {
				b.AddNet(pins...)
			}
		}
	}
	sub, err := b.Build()
	return sub, masks, err
}

// withTerminals extends an assignment of a sub-problem's cells with every
// terminal's fixed side.
func withTerminals(cells partition.Assignment, masks []partition.Mask) partition.Assignment {
	a := append(partition.Assignment(nil), cells...)
	for _, m := range masks[len(cells):] {
		side, _ := m.OnlyPart()
		a = append(a, int8(side))
	}
	return a
}

// TestSubproblemPreservesCut is the paper's terminal-merging claim on the
// placer's own sub-problems: for random regions of a generated netlist under
// random positions, and random assignments of their cells, the
// one-terminal-per-side build has the same cut as the per-net-terminal
// build, with the same nets. One scratch serves every region, as a worker's
// does, and some regions start from a stamp about to wrap.
func TestSubproblemPreservesCut(t *testing.T) {
	nl, err := gen.Generate(gen.Params{
		Cells: 300, Pads: 16, RentExponent: 0.65, PinsPerCell: 3.6,
		AvgNetSize: 3.3, MaxAreaPct: 3, Seed: 7,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	h := nl.H
	s := newRegionScratch(h)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		pl := &Placement{H: h, X: make([]float64, h.NumVertices()), Y: make([]float64, h.NumVertices()), Width: 100, Height: 100}
		for v := range pl.X {
			pl.X[v], pl.Y[v] = 100*rng.Float64(), 100*rng.Float64()
		}
		x0, y0 := 70*rng.Float64(), 70*rng.Float64()
		r := region{x0, y0, x0 + 10 + 20*rng.Float64(), y0 + 10 + 20*rng.Float64(), nil}
		for v := range pl.X {
			if !h.IsPad(v) && pl.X[v] >= r.x0 && pl.X[v] < r.x1 && pl.Y[v] >= r.y0 && pl.Y[v] < r.y1 {
				r.cells = append(r.cells, int32(v))
			}
		}
		if len(r.cells) == 0 {
			return true
		}
		if seed%4 == 0 {
			s.stamp = ^uint32(0)
		}
		vertical, voteSeed := rng.IntN(2) == 0, rng.Uint64()
		got, gotMasks, err := subproblem(pl, r, vertical, rand.New(rand.NewPCG(voteSeed, 0)), s)
		if err != nil {
			t.Logf("seed %d: subproblem: %v", seed, err)
			return false
		}
		want, wantMasks, err := perNetTerminalSubproblem(pl, r, vertical, rand.New(rand.NewPCG(voteSeed, 0)))
		if err != nil {
			t.Logf("seed %d: reference: %v", seed, err)
			return false
		}
		if terms := len(gotMasks) - len(r.cells); terms > 2 || got.NumNets() != want.NumNets() {
			t.Logf("seed %d: %d terminals and %d nets, reference %d nets", seed, terms, got.NumNets(), want.NumNets())
			return false
		}
		cells := make(partition.Assignment, len(r.cells))
		for trial := 0; trial < 8; trial++ {
			for i := range cells {
				cells[i] = int8(rng.IntN(2))
			}
			gotCut := partition.Cut(got, withTerminals(cells, gotMasks))
			wantCut := partition.Cut(want, withTerminals(cells, wantMasks))
			if gotCut != wantCut {
				t.Logf("seed %d: cut %d, reference %d", seed, gotCut, wantCut)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
