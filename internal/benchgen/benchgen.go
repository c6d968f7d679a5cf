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
// Each external vertex induces one terminal, shared by every net that
// connects it to the block, so the terminal and external-net counts differ
// (a net may reach several external vertices, and a vertex may lie on
// several nets). Terminals have zero area, so this does not change the
// partitioning problem. DeriveQuad builds the 4-way variant with OR-region
// terminals.
package benchgen

import (
	"fmt"

	"repro/internal/geometry"
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

// Spec names a benchmark instance: a block rectangle plus a cutline
// direction. Unlike geometry.Rect.Contains, block membership is half-open:
// a cell exactly on the block's high X or Y edge lies outside it.
type Spec struct {
	Name  string
	Block geometry.Rect
	Cut   CutDir
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
// relative balance tolerance tol (the paper uses 0.02). Each terminal is
// fixed in the side of the cutline nearest its vertex's placed location,
// clamped into the block, so a pad left of the block propagates to the left
// partition.
func Derive(pl *place.Placement, spec Spec, tol float64) (*Instance, error) {
	cx, cy := spec.Block.Center()
	return derive(pl, spec.Name, spec.Block, 2, tol, func(v int) (partition.Mask, error) {
		at := geometry.PropagationRegion(spec.Block, geometry.Point(pl.X[v], pl.Y[v]))
		pos, mid := at.X0, cx
		if spec.Cut == Horizontal {
			pos, mid = at.Y0, cy
		}
		if pos >= mid {
			return partition.Single(1), nil
		}
		return partition.Single(0), nil
	})
}

// derive is the one §IV construction behind Derive and DeriveQuad: the
// cells of block become free vertices of a k-way problem, each net is
// visited once, and each external vertex on a net becomes one zero-area
// terminal, shared by all its nets, allowed in the parts terminal(v)
// returns.
func derive(pl *place.Placement, name string, block geometry.Rect, k int, tol float64,
	terminal func(v int) (partition.Mask, error)) (*Instance, error) {
	h := pl.H
	b := hypergraph.NewBuilder(1)
	b.DropSingletons = true
	b.DedupPins = true
	subOf := make([]int32, h.NumVertices())
	var cellOf []int32
	var masks []partition.Mask
	free := partition.AllParts(k)
	for v := range subOf {
		subOf[v] = -1
		if inBlock(pl, block, v) {
			subOf[v] = int32(b.AddCell(h.VertexName(v), h.Weight(v)))
			cellOf = append(cellOf, int32(v))
			masks = append(masks, free)
		}
	}
	nCells := len(cellOf)
	if nCells < k {
		return nil, fmt.Errorf("benchgen: block %q contains %d cells; need at least %d", name, nCells, k)
	}

	externalNets := 0
	netSeen := make([]bool, h.NumNets())
	var pins []int
	for _, pv := range cellOf[:nCells] {
		for _, en := range h.NetsOf(int(pv)) {
			if netSeen[en] {
				continue
			}
			netSeen[en] = true
			pins = pins[:0]
			external := false
			for _, u := range h.Pins(int(en)) {
				if subOf[u] < 0 {
					mask, err := terminal(int(u))
					if err != nil {
						return nil, fmt.Errorf("benchgen: terminal for %s: %w", h.VertexName(int(u)), err)
					}
					subOf[u] = int32(b.AddPad(h.VertexName(int(u))))
					cellOf = append(cellOf, u)
					masks = append(masks, mask)
				}
				external = external || int(subOf[u]) >= nCells
				pins = append(pins, int(subOf[u]))
			}
			if external {
				externalNets++
			}
			if len(pins) >= 2 {
				b.AddNet(pins...)
			}
		}
	}
	sub, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("benchgen: %w", err)
	}
	prob := &partition.Problem{
		H:       sub,
		K:       k,
		Balance: partition.NewUniform(sub, k, tol),
		Allowed: masks,
	}
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("benchgen: derived instance invalid: %w", err)
	}
	return &Instance{
		Name:    name,
		Problem: prob,
		CellOf:  cellOf,
		Stats: InstanceStats{
			Cells:        nCells,
			Nets:         sub.NumNets(),
			Pads:         sub.NumVertices() - nCells,
			ExternalNets: externalNets,
			MaxPct:       hypergraph.ComputeStats(sub).MaxWeightPct,
		},
	}, nil
}

// inBlock reports whether placement vertex v is a cell inside block. The
// block is half-open (low edges in, high edges out), so blocks that tile the
// chip never share a cell; blocks reaching the chip's high edges extend
// slightly past it.
func inBlock(pl *place.Placement, block geometry.Rect, v int) bool {
	x, y := pl.X[v], pl.Y[v]
	return !pl.H.IsPad(v) && x >= block.X0 && x < block.X1 && y >= block.Y0 && y < block.Y1
}

// StandardSpecs returns the paper-style block family for a placement: block
// A is the whole chip (L0), B the left half (L1_V0), C the bottom half
// (L1_H0), and D the bottom-left quadrant (L2_V0_H0); each appears with a
// vertical and a horizontal cutline, giving eight instances per circuit.
func StandardSpecs(pl *place.Placement, base string) []Spec {
	// Blocks extend slightly past the chip so boundary cells are included
	// (membership is half-open).
	w, h := pl.Width, pl.Height
	blocks := []struct {
		suffix, level string
		r             geometry.Rect
	}{
		{"A", "L0", geometry.Rect{X1: w * 1.0001, Y1: h * 1.0001}},
		{"B", "L1_V0", geometry.Rect{X1: w / 2, Y1: h * 1.0001}},
		{"C", "L1_H0", geometry.Rect{X1: w * 1.0001, Y1: h / 2}},
		{"D", "L2_V0_H0", geometry.Rect{X1: w / 2, Y1: h / 2}},
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
