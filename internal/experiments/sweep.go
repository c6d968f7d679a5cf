package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// SweepConfig parameterizes the Figures 1-2 protocol.
type SweepConfig struct {
	// Fractions of vertices to fix (default DefaultFractions).
	Fractions []float64
	// Starts are the multistart counts plotted as separate traces
	// (default 1, 2, 4, 8).
	Starts []int
	// Trials is the number of independent trials averaged per data point
	// (the paper uses 50).
	Trials int
	// Tolerance is the balance tolerance (the paper uses 0.02).
	Tolerance float64
	// GoodStarts is the number of multilevel starts invested in finding the
	// best-known solution of the unconstrained instance (default 10).
	GoodStarts int
	// ML configures the multilevel engine.
	ML multilevel.Config
	// Seed makes the sweep deterministic.
	Seed uint64
	// Workers bounds the goroutines running independent (regime, fraction,
	// trial) cells (<= 0 means runtime.GOMAXPROCS). Cell RNGs derive from
	// Seed and the cell index, so results are identical for every worker
	// count — only wall-clock changes.
	Workers int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if c.Fractions == nil {
		c.Fractions = DefaultFractions()
	}
	if c.Starts == nil {
		c.Starts = []int{1, 2, 4, 8}
	}
	if c.Trials <= 0 {
		c.Trials = 10
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.02
	}
	if c.GoodStarts <= 0 {
		c.GoodStarts = 10
	}
	return c
}

// SweepPoint is one data point of a Figure 1/2 plot: a (regime, fraction,
// starts) cell averaged over trials.
type SweepPoint struct {
	Regime     Regime
	Fraction   float64
	Starts     int
	AvgBestCut float64
	// Normalized is AvgBestCut divided by the regime's reference: the
	// best-known free cut for Good, and the best cut seen across every
	// start of this instance (this fraction) for Rand.
	Normalized float64
	// AvgCPU is the average wall-clock per trial (all starts of the trial).
	AvgCPU time.Duration
}

// SweepResult holds a full Figure 1/2 dataset for one circuit.
type SweepResult struct {
	Instance     string
	Vertices     int
	BestFreeCut  int64
	GoodSolution partition.Assignment
	Points       []SweepPoint
	// RandBest[fraction] is the reference cut used to normalize the Rand
	// regime at that fraction.
	RandBest map[float64]int64
}

// RunSweep executes the paper's Figure 1/2 protocol on h, running its
// independent (regime, fraction, trial, starts) cells on cfg.Workers
// goroutines.
func RunSweep(name string, h *hypergraph.Hypergraph, cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf19a7e))
	// Best-known solution of the unconstrained instance ("good" reference).
	fx, err := newFixture(h, 2, cfg.Tolerance, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: finding good solution for %s: %w", name, err)
	}
	res := &SweepResult{
		Instance:     name,
		Vertices:     h.NumVertices(),
		BestFreeCut:  fx.best.Cut,
		GoodSolution: fx.best.Assignment,
		RandBest:     map[float64]int64{},
	}

	// Cell j of a (regime, fraction) group is trial j/len(Starts) at
	// Starts[j%len(Starts)]; all trials of a group share its problem.
	type cell struct {
		cut int64
		cpu time.Duration
	}
	gs := fx.groups(cfg.Fractions, Good, Rand)
	nS := len(cfg.Starts)
	per := cfg.Trials * nS
	cells, err := runCells(gs, per, rng.Uint64(), cfg.Workers, func(g group, j int, rng func() *rand.Rand) (cell, error) {
		t0 := time.Now()
		r, err := solve(g.prob, cfg.ML, 1, multilevel.Spec{Starts: cfg.Starts[j%nS]}, rng())
		if err != nil {
			return cell{}, err
		}
		return cell{r.Cut, time.Since(t0)}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}

	for gi, g := range gs {
		cs := cells[gi*per : (gi+1)*per]
		instBest := int64(1) << 62
		for _, c := range cs {
			instBest = min(instBest, c.cut)
		}
		ref := float64(fx.best.Cut)
		if g.regime == Rand {
			res.RandBest[g.frac] = instBest
			ref = float64(instBest)
		}
		for si, starts := range cfg.Starts {
			var sumCut float64
			var sumCPU time.Duration
			for trial := 0; trial < cfg.Trials; trial++ {
				sumCut += float64(cs[trial*nS+si].cut)
				sumCPU += cs[trial*nS+si].cpu
			}
			pt := SweepPoint{
				Regime:     g.regime,
				Fraction:   g.frac,
				Starts:     starts,
				AvgBestCut: sumCut / float64(cfg.Trials),
				AvgCPU:     sumCPU / time.Duration(cfg.Trials),
				Normalized: 1,
			}
			if ref > 0 {
				pt.Normalized = pt.AvgBestCut / ref
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// Point returns the sweep point for (regime, fraction, starts), or nil.
func (r *SweepResult) Point(regime Regime, fraction float64, starts int) *SweepPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Regime == regime && p.Fraction == fraction && p.Starts == starts {
			return p
		}
	}
	return nil
}
