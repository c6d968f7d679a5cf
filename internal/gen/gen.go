// Package gen synthesizes circuit netlists that stand in for the ISPD-98 IBM
// benchmark suite used by the paper. The generator reproduces the netlist
// statistics the paper's phenomena depend on:
//
//   - Rent-style locality and hierarchy: cells live on an implicit 2D grid
//     carrying a BSP block hierarchy; every net is confined to one block at
//     a depth drawn with P(d) proportional to 2^((1-p)d). A counting
//     argument (see netDepth) shows the expected number of nets crossing a
//     depth-d block boundary is then ~ k*(C/2^d)^p, i.e. blocks obey Rent's
//     rule with exponent p, and the netlist has the modular structure that
//     makes multilevel partitioners outperform flat FM, as on the real
//     suite.
//   - Net degree distribution dominated by 2-3 pin nets with a geometric
//     tail, matching the suite's ~3.5 pins-per-net average.
//   - Heavy-tailed cell areas: most cells are small, but a few macros carry
//     several percent of the total area each (the paper notes this is why
//     unit-area studies are pointless for the real placement context).
//   - Peripheral I/O pads: zero-area terminal vertices connected to cells
//     near the chip boundary.
//
// The IBM01S..IBM05S presets match the published vertex/net counts of
// IBM01-IBM05; Params.Scaled derives reduced-size variants for tests.
package gen

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/hypergraph"
)

// Params configures the synthetic netlist generator.
type Params struct {
	// Cells is the number of movable cells (excluding pads).
	Cells int
	// Pads is the number of zero-area I/O pad vertices.
	Pads int
	// RentExponent is the target Rent parameter p (typ. 0.55-0.75).
	RentExponent float64
	// PinsPerCell is the target average pins per cell, k (typ. 3.5-4).
	PinsPerCell float64
	// AvgNetSize is the target average pins per net (typ. ~3.5).
	AvgNetSize float64
	// MacroFraction is the fraction of cells drawn as large macros
	// (typ. 0.0005-0.002).
	MacroFraction float64
	// MaxAreaPct forces the largest macro to approximately this percentage
	// of the total cell area (typ. 2-10; 0 disables the adjustment).
	MaxAreaPct float64
	// PinResource, when set, emits a second weight resource holding each
	// cell's pin count, enabling the multi-balanced ("multi-area")
	// partitioning the proposed benchmark format describes — e.g. balancing
	// cell area and cell pin count simultaneously.
	PinResource bool
	// Seed makes generation deterministic.
	Seed uint64
}

// Validate reports structural errors in the parameters.
func (p Params) Validate() error {
	switch {
	case p.Cells < 4:
		return fmt.Errorf("gen: need at least 4 cells, got %d", p.Cells)
	case p.Pads < 0:
		return fmt.Errorf("gen: negative pad count %d", p.Pads)
	case p.RentExponent <= 0 || p.RentExponent >= 1:
		return fmt.Errorf("gen: Rent exponent %v outside (0,1)", p.RentExponent)
	case p.PinsPerCell < 2:
		return fmt.Errorf("gen: pins per cell %v < 2", p.PinsPerCell)
	case p.AvgNetSize < 2:
		return fmt.Errorf("gen: average net size %v < 2", p.AvgNetSize)
	case p.MacroFraction < 0 || p.MacroFraction > 0.1:
		return fmt.Errorf("gen: macro fraction %v outside [0, 0.1]", p.MacroFraction)
	case p.MaxAreaPct < 0 || p.MaxAreaPct > 50:
		return fmt.Errorf("gen: max area percent %v outside [0, 50]", p.MaxAreaPct)
	}
	return nil
}

// Scaled returns a copy of p with cell, pad and seed-derived sizes scaled by
// factor f (at least 4 cells), for fast test-size instances.
func (p Params) Scaled(f float64) Params {
	q := p
	q.Cells = int(float64(p.Cells) * f)
	if q.Cells < 4 {
		q.Cells = 4
	}
	q.Pads = int(float64(p.Pads) * f)
	return q
}

// Netlist is a generated circuit: the hypergraph plus the implicit placement
// grid used during generation (exported so the top-down placer substrate and
// benchmark derivation can reuse the generator's notion of locality when
// seeding positions).
type Netlist struct {
	H *hypergraph.Hypergraph
	// GridSide is the side length of the implicit cell grid.
	GridSide int
	// CellX, CellY give the implicit grid position of each vertex (pads sit
	// on the periphery).
	CellX, CellY []int
	Params       Params
}

// PadPositions returns the fixed coordinates a placer pins the netlist with:
// each pad at its grid position, each cell NaN (movable), the convention of
// place.Config.FixedX/FixedY.
func (nl *Netlist) PadPositions() (x, y []float64) {
	nv := nl.H.NumVertices()
	x, y = make([]float64, nv), make([]float64, nv)
	for v := range x {
		if nl.H.IsPad(v) {
			x[v], y[v] = float64(nl.CellX[v]), float64(nl.CellY[v])
		} else {
			x[v], y[v] = math.NaN(), math.NaN()
		}
	}
	return x, y
}

// Generate builds a synthetic netlist.
func Generate(p Params) (*Netlist, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(p.Seed, 0xda7a5eed))
	side := int(math.Ceil(math.Sqrt(float64(p.Cells))))

	numResources := 1
	if p.PinResource {
		numResources = 2
	}
	b := hypergraph.NewBuilder(numResources)
	b.DedupPins = true
	b.DropSingletons = true

	// Cell areas: ~72% unit, the rest a geometric tail, plus macros.
	areas := make([]int64, p.Cells)
	var total int64
	for i := range areas {
		a := int64(1)
		for a < 64 && rng.Float64() < 0.28 {
			a *= 2
		}
		areas[i] = a
		total += a
	}
	nMacros := int(p.MacroFraction * float64(p.Cells))
	if p.MaxAreaPct > 0 && nMacros == 0 {
		nMacros = 1
	}
	if nMacros > 0 && p.MaxAreaPct > 0 {
		// Macro areas decay from the largest; the largest is set so that it
		// is ~MaxAreaPct of the final total.
		frac := p.MaxAreaPct / 100
		for i := 0; i < nMacros; i++ {
			v := rng.IntN(p.Cells)
			share := frac / float64(int64(1)<<uint(i))
			if share < 0.001 {
				break
			}
			a := int64(share / (1 - share) * float64(total))
			if a < 1 {
				a = 1
			}
			total += a - areas[v]
			areas[v] = a
		}
	}
	for i := 0; i < p.Cells; i++ {
		b.AddCell(fmt.Sprintf("a%d", i), areas[i])
	}

	cellX := make([]int, p.Cells+p.Pads)
	cellY := make([]int, p.Cells+p.Pads)
	perm := rng.Perm(side * side)[:p.Cells]
	for i, pos := range perm {
		cellX[i] = pos % side
		cellY[i] = pos / side
	}
	// cellAt[y*side+x] = cell index or -1.
	cellAt := make([]int32, side*side)
	for i := range cellAt {
		cellAt[i] = -1
	}
	for i := 0; i < p.Cells; i++ {
		cellAt[cellY[i]*side+cellX[i]] = int32(i)
	}

	// Net scopes: a BSP hierarchy over the grid, alternating vertical and
	// horizontal splits. A net at depth d is confined to the depth-d block
	// containing a uniformly drawn center cell. With the depth distribution
	// P(d) ~ 2^((1-p)d), the expected number of nets crossing a depth-d
	// block boundary is proportional to 2^(-pd): a level-j net (j < d) sits
	// in a given block's ancestor with probability 2^-j and touches the
	// block with probability ~ size*2^(j-d), so crossings(d) ~
	// 2^-d * sum_{j<d} N_j ~ 2^-d * 2^((1-p)d) = 2^(-pd) — Rent's rule with
	// exponent p.
	maxDepth := 0
	for blockCells := p.Cells; blockCells > 24; blockCells /= 2 {
		maxDepth++
	}
	depthWeights := make([]float64, maxDepth+1)
	var depthTotal float64
	for d := 0; d <= maxDepth; d++ {
		depthWeights[d] = math.Pow(2, (1-p.RentExponent)*float64(d))
		depthTotal += depthWeights[d]
	}
	sampleDepth := func() int {
		u := rng.Float64() * depthTotal
		for d, w := range depthWeights {
			if u < w {
				return d
			}
			u -= w
		}
		return maxDepth
	}
	// blockOf returns the half-open grid rectangle of the depth-d BSP block
	// containing (x, y), by descending a hierarchy whose split positions are
	// jittered per node within [0.40, 0.60] of the block span. The jitter
	// matters: real module boundaries do not align with exact bisection, so
	// a balanced partitioner must choose which natural cluster to break —
	// exact-half splits would instead give every instance one canonical
	// min-cut that any engine finds on the first start.
	splitFrac := func(x0, y0, depth int) float64 {
		z := uint64(x0)*0x9e3779b97f4a7c15 ^ uint64(y0)*0xbf58476d1ce4e5b9 ^
			uint64(depth)*0x94d049bb133111eb ^ p.Seed
		z ^= z >> 31
		z *= 0xd6e8feb86659fd93
		z ^= z >> 27
		return 0.4 + 0.2*float64(z>>11)/float64(1<<53)
	}
	blockOf := func(x, y, d int) (x0, y0, x1, y1 int) {
		x0, y0, x1, y1 = 0, 0, side, side
		for i := 0; i < d; i++ {
			if i%2 == 0 { // vertical split
				at := x0 + int(splitFrac(x0, y0, i)*float64(x1-x0))
				if at <= x0 || at >= x1 {
					at = (x0 + x1) / 2
				}
				if x < at {
					x1 = at
				} else {
					x0 = at
				}
			} else { // horizontal split
				at := y0 + int(splitFrac(x0, y0, i)*float64(y1-y0))
				if at <= y0 || at >= y1 {
					at = (y0 + y1) / 2
				}
				if y < at {
					y1 = at
				} else {
					y0 = at
				}
			}
		}
		return x0, y0, x1, y1
	}
	pickIn := func(x0, y0, x1, y1 int) int {
		for try := 0; try < 12; try++ {
			x := x0 + rng.IntN(x1-x0)
			y := y0 + rng.IntN(y1-y0)
			if c := cellAt[y*side+x]; c >= 0 {
				return int(c)
			}
		}
		return rng.IntN(p.Cells)
	}
	// Net sizes: 2 + geometric, tuned to the requested mean.
	geomP := 1 / (p.AvgNetSize - 1) // mean = 2 + (1-q)/q
	sampleNetSize := func() int {
		s := 2
		for s < 40 && rng.Float64() > geomP {
			s++
		}
		return s
	}

	numNets := int(math.Round(p.PinsPerCell * float64(p.Cells) / p.AvgNetSize))
	scratch := make([]int, 0, 48)
	for e := 0; e < numNets; e++ {
		size := sampleNetSize()
		center := rng.IntN(p.Cells)
		x0, y0, x1, y1 := blockOf(cellX[center], cellY[center], sampleDepth())
		scratch = scratch[:0]
		scratch = append(scratch, center)
		for len(scratch) < size {
			scratch = append(scratch, pickIn(x0, y0, x1, y1))
		}
		b.AddNet(scratch...) // DedupPins drops repeats; DropSingletons drops degenerates
	}

	// Pads: evenly spread around the periphery, each driving a small net
	// into cells of a mid-depth block near the pad.
	padDepth := maxDepth / 2
	for i := 0; i < p.Pads; i++ {
		pad := b.AddPad(fmt.Sprintf("p%d", i))
		px, py := peripheryPoint(side, i, p.Pads, rng)
		cellX[pad] = px
		cellY[pad] = py
		x0, y0, x1, y1 := blockOf(min(px, side-1), min(py, side-1), padDepth)
		size := 1 + sampleNetSize()/2
		scratch = scratch[:0]
		scratch = append(scratch, pad)
		for len(scratch) < 1+size {
			scratch = append(scratch, pickIn(x0, y0, x1, y1))
		}
		b.AddNet(scratch...)
	}

	if p.PinResource {
		// Resource 1 = pin count per vertex, filled in once the nets exist.
		// Count exactly what Build will keep: duplicate pins collapse and
		// nets with fewer than two distinct pins are dropped.
		deg := make([]int64, b.NumVertices())
		stamp := make([]int, b.NumVertices())
		var distinct []int32
		for e := 0; e < b.NumNets(); e++ {
			distinct = distinct[:0]
			for _, v := range b.NetPins(e) {
				if stamp[v] != e+1 {
					stamp[v] = e + 1
					distinct = append(distinct, v)
				}
			}
			if len(distinct) < 2 {
				continue
			}
			for _, v := range distinct {
				deg[v]++
			}
		}
		for v, d := range deg {
			if d == 0 {
				d = 1 // every module supplies at least one unit per resource
			}
			b.SetWeight(v, 1, d)
		}
	}
	h, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	return &Netlist{H: h, GridSide: side, CellX: cellX, CellY: cellY, Params: p}, nil
}

// peripheryPoint spreads pad i of n around the grid boundary.
func peripheryPoint(side, i, n int, rng *rand.Rand) (int, int) {
	if n <= 0 {
		n = 1
	}
	perimeter := 4 * (side - 1)
	if perimeter < 4 {
		perimeter = 4
	}
	pos := (i*perimeter/n + rng.IntN(3)) % perimeter
	s := side - 1
	switch {
	case pos < s:
		return pos, 0
	case pos < 2*s:
		return s, pos - s
	case pos < 3*s:
		return 3*s - pos, s
	default:
		return 0, 4*s - pos
	}
}
