// Package place implements a top-down recursive-bisection standard-cell
// placer in the Dunlop–Kernighan tradition: regions are bisected by the
// multilevel min-cut partitioner under the paper's pass cutoff, external
// nets are propagated onto region boundaries as fixed terminals (at most one
// per side of the cutline), and recursion bottoms out by spreading the few
// remaining cells across the region.
//
// The placer exists because the paper derives its fixed-terminals benchmark
// suite from actual placements (Section IV); it is also the context that
// produces fixed-terminal partitioning instances in the first place.
package place

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/par"
	"repro/internal/partition"
)

// The placer's fixed settings: every bisection balances to within
// tolerance of exact halves (looser than the paper's 2% partitioning
// experiments because placement splits must track region capacity, not
// exact bisection) and runs the paper's pass cutoff, passFraction, on every
// FM pass after the first (Table III: with terminals dominating, the cutoff
// costs no quality). An infeasible bisection retries at doubled tolerances
// up to maxTolerance, and recursion stops once a region holds at most
// minBlockCells cells.
const (
	tolerance     = 0.1
	passFraction  = 0.1
	maxTolerance  = 0.5
	minBlockCells = 8
)

// Config controls the placer.
type Config struct {
	// ML configures the multilevel partitioner used for each bisection.
	// Bisections are k = 2, where every objective coincides with the cut,
	// so ML.Objective does not change the placement. The placer fixes
	// ML.MaxPassFraction at the paper's 10% cutoff and ignores the
	// caller's value.
	ML multilevel.Config
	// FixedX/FixedY pin vertices (typically pads) to chip coordinates; use
	// NaN entries (or nil slices) for movable vertices.
	FixedX, FixedY []float64
	// Width, Height are the chip dimensions (default: unit square scaled to
	// sqrt of total area).
	Width, Height float64
	// Workers bounds the goroutines bisecting the independent regions of one
	// top-down level (<= 0 means runtime.GOMAXPROCS). Each region's RNG is
	// drawn from the caller's rng in deterministic region order, so the
	// placement is identical for every worker count.
	Workers int
}

// Placement is the result of Place: a position for every vertex.
type Placement struct {
	H             *hypergraph.Hypergraph
	X, Y          []float64
	Width, Height float64
}

// HPWL returns the total half-perimeter wirelength of the placement.
func (pl *Placement) HPWL() float64 {
	var total float64
	for e := 0; e < pl.H.NumNets(); e++ {
		pins := pl.H.Pins(e)
		minX, maxX := math.Inf(1), math.Inf(-1)
		minY, maxY := math.Inf(1), math.Inf(-1)
		for _, v := range pins {
			x, y := pl.X[v], pl.Y[v]
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
		total += (maxX - minX) + (maxY - minY)
	}
	return total
}

type region struct {
	x0, y0, x1, y1 float64
	cells          []int32 // movable vertices confined to this region
}

func (r region) width() float64  { return r.x1 - r.x0 }
func (r region) height() float64 { return r.y1 - r.y0 }
func (r region) cx() float64     { return (r.x0 + r.x1) / 2 }
func (r region) cy() float64     { return (r.y0 + r.y1) / 2 }

// Place computes a top-down min-cut placement of h.
func Place(h *hypergraph.Hypergraph, cfg Config, rng *rand.Rand) (*Placement, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		side := math.Sqrt(float64(h.TotalWeight()))
		if side <= 0 {
			side = math.Sqrt(float64(h.NumVertices())) + 1
		}
		cfg.Width, cfg.Height = side, side
	}
	nv := h.NumVertices()
	pl := &Placement{
		H:     h,
		X:     make([]float64, nv),
		Y:     make([]float64, nv),
		Width: cfg.Width, Height: cfg.Height,
	}
	var rootCells []int32
	for v := 0; v < nv; v++ {
		fx, fy := math.NaN(), math.NaN()
		if cfg.FixedX != nil && v < len(cfg.FixedX) {
			fx = cfg.FixedX[v]
		}
		if cfg.FixedY != nil && v < len(cfg.FixedY) {
			fy = cfg.FixedY[v]
		}
		if !math.IsNaN(fx) && !math.IsNaN(fy) {
			pl.X[v], pl.Y[v] = clamp(fx, 0, cfg.Width), clamp(fy, 0, cfg.Height)
		} else {
			pl.X[v], pl.Y[v] = cfg.Width/2, cfg.Height/2
			rootCells = append(rootCells, int32(v))
		}
	}
	// Top-down levels: the regions of one level partition disjoint cell sets,
	// so their bisections are independent and run on cfg.Workers goroutines.
	// Terminal regions are spread first (their final positions feed terminal
	// propagation), per-region seeds are drawn in region order, and child
	// positions are applied after the level's barrier — so every level's
	// bisections see the same snapshot regardless of worker count.
	level := []region{{0, 0, cfg.Width, cfg.Height, rootCells}}
	scratch := make([]*regionScratch, par.Workers(cfg.Workers)) // one per pool slot, made on first use
	for len(level) > 0 {
		var work []region
		for _, r := range level {
			if len(r.cells) <= minBlockCells {
				spreadCells(pl, r)
			} else {
				work = append(work, r)
			}
		}
		seeds := make([]uint64, len(work))
		for i := range seeds {
			seeds[i] = rng.Uint64()
		}
		type split struct {
			children []region
			ok       bool
		}
		splits := make([]split, len(work))
		par.ForEachWorker(len(work), cfg.Workers, func(w, i int) {
			if scratch[w] == nil {
				scratch[w] = newRegionScratch(h)
			}
			rrng := rand.New(rand.NewPCG(seeds[i], 0))
			// A macro-dominated region can make the bisection infeasible at
			// the base tolerance; loosen progressively, and as a last resort
			// leave the region terminal.
			left, right, err := bisectRegion(pl, work[i], cfg.ML, tolerance, rrng, scratch[w])
			for tol := tolerance * 2; err != nil && tol <= maxTolerance; tol *= 2 {
				left, right, err = bisectRegion(pl, work[i], cfg.ML, tol, rrng, scratch[w])
			}
			if err == nil {
				splits[i] = split{[]region{left, right}, true}
			}
		})
		var next []region
		for i, r := range work {
			if !splits[i].ok {
				spreadCells(pl, r)
				continue
			}
			for _, child := range splits[i].children {
				for _, v := range child.cells {
					pl.X[v], pl.Y[v] = child.cx(), child.cy()
				}
				next = append(next, child)
			}
		}
		level = next
	}
	return pl, nil
}

// bisectRegion splits r perpendicular to its longer side using min-cut
// bipartitioning under balance tolerance tol with propagated terminals.
func bisectRegion(pl *Placement, r region, ml multilevel.Config, tol float64, rng *rand.Rand, s *regionScratch) (left, right region, err error) {
	vertical := r.width() >= r.height() // vertical cutline splits left/right
	if vertical {
		mid := r.cx()
		left = region{r.x0, r.y0, mid, r.y1, nil}
		right = region{mid, r.y0, r.x1, r.y1, nil}
	} else {
		mid := r.cy()
		left = region{r.x0, r.y0, r.x1, mid, nil}
		right = region{r.x0, mid, r.x1, r.y1, nil}
	}
	sub, masks, err := subproblem(pl, r, vertical, rng, s)
	if err != nil {
		return region{}, region{}, fmt.Errorf("place: building region subproblem: %w", err)
	}
	prob := &partition.Problem{
		H:       sub,
		K:       2,
		Balance: partition.NewBisection(sub, tol),
		Allowed: masks,
	}
	ml.MaxPassFraction = passFraction
	res, err := multilevel.Partition(prob, ml, rng)
	if err != nil {
		return region{}, region{}, fmt.Errorf("place: bisecting region: %w", err)
	}
	for i, v := range r.cells {
		if res.Assignment[i] == 0 {
			left.cells = append(left.cells, v)
		} else {
			right.cells = append(right.cells, v)
		}
	}
	return left, right, nil
}

// subproblem builds r's bisection instance with the sides' allowed-part
// masks. Its vertices are r's cells (sub id i is r.cells[i]) followed by at
// most one zero-area terminal per side, fixed to that side and created on
// first use. Every net touching r keeps its in-region pins; a net with pins
// outside r also takes the terminal of the side its external pins are nearer
// to, by majority vote with ties drawn from rng in net order. One terminal
// per side instead of one per external net changes no cut: the paper's
// conclusion that all terminals fixed in one part merge into one.
func subproblem(pl *Placement, r region, vertical bool, rng *rand.Rand, s *regionScratch) (*hypergraph.Hypergraph, []partition.Mask, error) {
	h := pl.H
	s.next()
	b := hypergraph.NewBuilder(1)
	b.DropSingletons = true
	b.DedupPins = true
	masks := make([]partition.Mask, len(r.cells), len(r.cells)+2)
	free := partition.AllParts(2)
	for i, v := range r.cells {
		b.AddVertex(h.Weight(int(v)))
		s.vStamp[v], s.subOf[v] = s.stamp, int32(i)
		masks[i] = free
	}
	term := [2]int{-1, -1}
	for _, v := range r.cells {
		for _, en := range h.NetsOf(int(v)) {
			if s.netStamp[en] == s.stamp {
				continue
			}
			s.netStamp[en] = s.stamp
			pins := s.pins[:0]
			votes := 0 // >0 favours the `right` child
			external := 0
			for _, u := range h.Pins(int(en)) {
				if s.vStamp[u] == s.stamp {
					pins = append(pins, int(s.subOf[u]))
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
				if term[side] < 0 {
					term[side] = b.AddVertex(0)
					masks = append(masks, partition.Single(side))
				}
				pins = append(pins, term[side])
			}
			if len(pins) >= 2 {
				b.AddNet(pins...)
			}
			s.pins = pins
		}
	}
	sub, err := b.Build()
	return sub, masks, err
}

// regionScratch is one worker's reusable state for building region
// sub-problems, standing in for per-region maps: subOf[v] is vertex v's sub
// id where vStamp[v] holds the current stamp, and net e has been added where
// netStamp[e] does.
type regionScratch struct {
	stamp            uint32
	vStamp, netStamp []uint32
	subOf            []int32
	pins             []int
}

func newRegionScratch(h *hypergraph.Hypergraph) *regionScratch {
	return &regionScratch{
		vStamp:   make([]uint32, h.NumVertices()),
		netStamp: make([]uint32, h.NumNets()),
		subOf:    make([]int32, h.NumVertices()),
	}
}

// next starts a new region: it invalidates every entry by advancing the
// stamp, clearing the slices when the stamp wraps.
func (s *regionScratch) next() {
	s.stamp++
	if s.stamp == 0 {
		clear(s.vStamp)
		clear(s.netStamp)
		s.stamp = 1
	}
}

// nearerSecond reports whether vertex u's current position is nearer the
// second (right/top) child of r under the given cut direction.
func nearerSecond(pl *Placement, r region, vertical bool, u int) bool {
	if vertical {
		return clamp(pl.X[u], r.x0, r.x1) >= r.cx()
	}
	return clamp(pl.Y[u], r.y0, r.y1) >= r.cy()
}

// spreadCells distributes a terminal region's cells on a small grid inside
// the region.
func spreadCells(pl *Placement, r region) {
	n := len(r.cells)
	if n == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	for i, v := range r.cells {
		cx := i % cols
		cy := i / cols
		pl.X[v] = r.x0 + (float64(cx)+0.5)*r.width()/float64(cols)
		pl.Y[v] = r.y0 + (float64(cy)+0.5)*r.height()/float64(rows)
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
