// Package benchgen derives fixed-terminals partitioning benchmarks from
// placements, following Section IV of the paper:
//
//   - a block is an axis-parallel rectangle laid over the placement;
//   - an axis-parallel cutline bisects the block;
//   - each cell contained in the block induces a movable vertex;
//   - each pad adjacent to a cell in the block induces a zero-area terminal
//     vertex fixed in the closest partition, and adjacent cells outside the
//     block similarly induce terminals;
//   - instances are named by the level at which they occur (L0, L1_V0, ...).
//
// This construction deliberately creates more terminal vertices than there
// are external nets (terminals are per external pin, not per net), which
// does not affect the partitioning problem because terminals have zero area.
package benchgen

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
	"repro/internal/partition"
	"repro/internal/place"
)

// CutDir is the orientation of the cutline bisecting a block.
type CutDir int

const (
	// Vertical cutlines split a block into left (part 0) and right (part 1).
	Vertical CutDir = iota
	// Horizontal cutlines split a block into bottom (part 0) and top (part 1).
	Horizontal
)

// String returns "V" or "H".
func (d CutDir) String() string {
	if d == Vertical {
		return "V"
	}
	return "H"
}

// Rect is an axis-parallel rectangle in placement coordinates.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Contains reports whether (x, y) lies in the rectangle (inclusive on the
// low edges, exclusive on the high edges except at the outer boundary —
// callers pass blocks that tile the chip, so shared edges must not double
// count).
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Spec names a benchmark instance: a block rectangle plus a cutline
// direction.
type Spec struct {
	Name  string
	Block Rect
	Cut   CutDir
	// WirelengthWeights, when set, derives a placement-specific objective
	// (the paper's footnote on "net bounding boxes and Steiner tree
	// estimators"): each net's weight becomes 1 plus its placed bounding-box
	// extent perpendicular to the cutline, scaled to [1, 16], so the
	// partitioner prefers to cut nets that already span the cutline region
	// and spares short local nets.
	WirelengthWeights bool
}

// InstanceStats are the Table IV parameters of a derived instance.
type InstanceStats struct {
	Cells        int     // movable vertices
	Nets         int     // nets retained in the instance
	Pads         int     // terminal vertices (fixed, zero area)
	ExternalNets int     // nets incident to at least one terminal
	MaxPct       float64 // largest cell area as % of total cell area
}

// Instance is a derived fixed-terminals partitioning benchmark.
type Instance struct {
	Name    string
	Problem *partition.Problem
	Stats   InstanceStats
	// CellOf maps the instance's movable vertices back to placement
	// vertices (terminal vertices map to the external vertex they shadow).
	CellOf []int32
}

// Derive builds the benchmark instance for spec over the placement, with a
// relative balance tolerance tol (the paper uses 0.02).
func Derive(pl *place.Placement, spec Spec, tol float64) (*Instance, error) {
	h := pl.H
	nv := h.NumVertices()
	mid := (spec.Block.X0 + spec.Block.X1) / 2
	if spec.Cut == Horizontal {
		mid = (spec.Block.Y0 + spec.Block.Y1) / 2
	}

	b := hypergraph.NewBuilder(1)
	b.DropSingletons = true
	b.DedupPins = true
	subOf := make([]int32, nv)
	for i := range subOf {
		subOf[i] = -1
	}
	var cellOf []int32
	var masks []partition.Mask
	free := partition.AllParts(2)
	inBlock := func(v int) bool {
		return !h.IsPad(v) && spec.Block.Contains(pl.X[v], pl.Y[v])
	}
	for v := 0; v < nv; v++ {
		if inBlock(v) {
			id := b.AddCell(h.VertexName(v), h.Weight(v))
			subOf[v] = int32(id)
			cellOf = append(cellOf, int32(v))
			masks = append(masks, free)
		}
	}
	nCells := len(cellOf)
	if nCells < 2 {
		return nil, fmt.Errorf("benchgen: block %q contains %d cells; need at least 2", spec.Name, nCells)
	}

	// closestSide returns the partition nearest an external vertex's placed
	// location (positions clamped into the block first, so a pad left of
	// the block propagates to the left partition).
	closestSide := func(v int) int {
		var pos float64
		if spec.Cut == Vertical {
			pos = clamp(pl.X[v], spec.Block.X0, spec.Block.X1)
		} else {
			pos = clamp(pl.Y[v], spec.Block.Y0, spec.Block.Y1)
		}
		if pos >= mid {
			return 1
		}
		return 0
	}

	// Walk nets once; external pins become (deduplicated) terminals.
	externalNets := 0
	netSeen := make([]bool, h.NumNets())
	var pins []int
	for _, pv := range cellOf {
		for _, en := range h.NetsOf(int(pv)) {
			if netSeen[en] {
				continue
			}
			netSeen[en] = true
			pins = pins[:0]
			external := false
			for _, u := range h.Pins(int(en)) {
				if subOf[u] >= 0 && inBlock(int(u)) {
					pins = append(pins, int(subOf[u]))
					continue
				}
				external = true
				if subOf[u] < 0 {
					id := b.AddPad(h.VertexName(int(u)))
					subOf[u] = int32(id)
					cellOf = append(cellOf, int32(u))
					masks = append(masks, partition.Single(closestSide(int(u))))
				}
				pins = append(pins, int(subOf[u]))
			}
			if external {
				externalNets++
			}
			if len(pins) >= 2 {
				b.AddWeightedNet(netWeight(pl, spec, int(en)), pins...)
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("benchgen: %w", err)
	}
	prob := &partition.Problem{
		H:       sub,
		K:       2,
		Balance: partition.NewBisection(sub, tol),
		Allowed: masks,
	}
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("benchgen: derived instance invalid: %w", err)
	}
	st := hypergraph.ComputeStats(sub)
	return &Instance{
		Name:    spec.Name,
		Problem: prob,
		CellOf:  cellOf,
		Stats: InstanceStats{
			Cells:        nCells,
			Nets:         sub.NumNets(),
			Pads:         sub.NumVertices() - nCells,
			ExternalNets: externalNets,
			MaxPct:       st.MaxWeightPct,
		},
	}, nil
}

// StandardSpecs returns the paper-style block family for a placement: block
// A is the whole chip (L0), B the left half (L1_V0), C the bottom half
// (L1_H0), and D the bottom-left quadrant (L2_V0_H0); each appears with a
// vertical and a horizontal cutline, giving eight instances per circuit.
func StandardSpecs(pl *place.Placement, base string) []Spec {
	w, h := pl.Width, pl.Height
	// Blocks extend slightly past the chip so boundary cells are included
	// (Contains is half-open).
	full := Rect{0, 0, w * 1.0001, h * 1.0001}
	left := Rect{0, 0, w / 2, h * 1.0001}
	bottom := Rect{0, 0, w * 1.0001, h / 2}
	quad := Rect{0, 0, w / 2, h / 2}
	blocks := []struct {
		suffix string
		level  string
		r      Rect
	}{
		{"A", "L0", full},
		{"B", "L1_V0", left},
		{"C", "L1_H0", bottom},
		{"D", "L2_V0_H0", quad},
	}
	var specs []Spec
	for _, blk := range blocks {
		for _, cut := range []CutDir{Vertical, Horizontal} {
			specs = append(specs, Spec{
				Name:  fmt.Sprintf("%s%s_%s_%s", base, blk.suffix, blk.level, cut),
				Block: blk.r,
				Cut:   cut,
			})
		}
	}
	return specs
}

// netWeight returns the net weight for a derived instance: 1 for plain
// min-cut, or a wirelength-derived weight when the spec asks for the
// placement-specific objective.
func netWeight(pl *place.Placement, spec Spec, e int) int64 {
	if !spec.WirelengthWeights {
		return 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range pl.H.Pins(e) {
		pos := pl.X[v]
		if spec.Cut == Horizontal {
			pos = pl.Y[v]
		}
		lo = math.Min(lo, pos)
		hi = math.Max(hi, pos)
	}
	span := spec.Block.X1 - spec.Block.X0
	if spec.Cut == Horizontal {
		span = spec.Block.Y1 - spec.Block.Y0
	}
	if span <= 0 {
		return 1
	}
	w := 1 + int64(math.Round(15*(hi-lo)/span))
	if w < 1 {
		w = 1
	}
	if w > 16 {
		w = 16
	}
	return w
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
