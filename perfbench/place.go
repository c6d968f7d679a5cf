package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/place"
)

// place-ibm: one client placing an IBM01S-sized circuit top-down by recursive
// bisection with its pads fixed on the periphery — the paper's own source of
// fixed-terminal instances: thousands of small sub-problems with propagated
// terminals. The multilevel stage knobs stay at their zero value, so the
// localized FM stage never runs here: a localized-FM change should not move
// this workload.
//
// Op i places the circuit with its own placer seed, drawn from the run seed,
// so a run's median spans many placements; the first measured op repeats the
// warm-up's seed and must repeat its placement.
func newPlace(seed uint64, nproc int) (*workload, error) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		return nil, err
	}
	nl, err := gen.Generate(pr.Params)
	if err != nil {
		return nil, err
	}
	h := nl.H
	nv := h.NumVertices()
	side := float64(nl.GridSide)
	fx, fy := make([]float64, nv), make([]float64, nv)
	pads := 0
	for v := 0; v < nv; v++ {
		fx[v], fy[v] = math.NaN(), math.NaN()
		if h.IsPad(v) {
			fx[v], fy[v] = float64(nl.CellX[v]), float64(nl.CellY[v])
			if fx[v] < 0 || fx[v] > side || fy[v] < 0 || fy[v] > side {
				return nil, fmt.Errorf("pad %d at (%v, %v) lies outside the %v-wide chip", v, fx[v], fy[v], side)
			}
			pads++
		}
	}
	b := &placeBench{h: h, seed: seed, hpwl: map[int]float64{}, cfg: place.Config{
		Width: side, Height: side, FixedX: fx, FixedY: fy, Workers: nproc,
	}}
	return &workload{
		clients:   1,
		cycle:     1,
		minCycles: objectiveOps,
		next:      b.next,
		objective: func() float64 { return meanOver(b.hpwl) },
		layers:    func(*trace) error { return nil },
		knobs:     map[string]any{"place_workers": nproc, "ml": "zero value (rounds and localized FM off)", "tolerance": "default 0.1", "min_block_cells": "default 8"},
		instance: map[string]any{
			"vertices": nv, "nets": h.NumNets(), "pins": h.NumPins(), "fixed": pads,
		},
	}, nil
}

type placeBench struct {
	h     *hypergraph.Hypergraph
	cfg   place.Config
	seed  uint64
	calls int
	hpwl  map[int]float64 // by placer seed; a repeated seed must repeat it
}

func (b *placeBench) next() ([]op, error) {
	i := max(0, b.calls-1)
	b.calls++
	return []op{&placeOp{b: b, i: i}}, nil
}

type placeOp struct {
	b     *placeBench
	i     int
	pl    *place.Placement
	err   error
	stats *multilevel.PhaseStats
}

func (o *placeOp) run(traced bool) {
	cfg := o.b.cfg
	if traced {
		o.stats = &multilevel.PhaseStats{}
		cfg.ML.Stats = o.stats
	}
	o.pl, o.err = place.Place(o.b.h, cfg, rand.New(rand.NewPCG(mix(o.b.seed, uint64(o.i)), 0x91ace)))
}

// check verifies that every vertex lies inside the chip, every pad sits at
// its fixed coordinates, and the reported HPWL matches a recount.
func (o *placeOp) check(tr *trace, rs roundStats) error {
	if o.err != nil {
		return fmt.Errorf("place: %w", o.err)
	}
	cfg, pl, h := &o.b.cfg, o.pl, o.b.h
	for v := 0; v < h.NumVertices(); v++ {
		x, y := pl.X[v], pl.Y[v]
		if !(x >= 0 && x <= cfg.Width && y >= 0 && y <= cfg.Height) {
			return fmt.Errorf("place: vertex %d at (%v, %v) outside the %vx%v chip", v, x, y, cfg.Width, cfg.Height)
		}
		if !math.IsNaN(cfg.FixedX[v]) && (x != cfg.FixedX[v] || y != cfg.FixedY[v]) {
			return fmt.Errorf("place: pad %d at (%v, %v), fixed at (%v, %v)", v, x, y, cfg.FixedX[v], cfg.FixedY[v])
		}
	}
	hpwl := pl.HPWL()
	if got := recountHPWL(h, pl.X, pl.Y); math.Abs(got-hpwl) > 1e-9*math.Max(1, got) {
		return fmt.Errorf("place: reported HPWL %v, recount %v", hpwl, got)
	}
	if err := repeats(o.b.hpwl, o.i, hpwl); err != nil {
		return fmt.Errorf("place: HPWL %w", err)
	}
	if tr != nil {
		tr.ops++
		tr.addPhases(o.stats)
		tr.placeSelfS += rs.cpu - ns(o.stats.TotalNS())
	}
	return nil
}

// recountHPWL sums each net's bounding-box half perimeter.
func recountHPWL(h *hypergraph.Hypergraph, xs, ys []float64) float64 {
	var total float64
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		x0, x1 := xs[pins[0]], xs[pins[0]]
		y0, y1 := ys[pins[0]], ys[pins[0]]
		for _, v := range pins[1:] {
			x0, x1 = math.Min(x0, xs[v]), math.Max(x1, xs[v])
			y0, y1 = math.Min(y0, ys[v]), math.Max(y1, ys[v])
		}
		total += (x1 - x0) + (y1 - y0)
	}
	return total
}
