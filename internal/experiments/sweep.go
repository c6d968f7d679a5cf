package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/par"
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
	// RefineWorkers, when nonzero, overrides ML.RefineWorkers for every
	// multilevel run of the protocol: positive values enable the
	// synchronous-round parallel refinement stage at that worker count
	// (every count >= 1 is bit-identical), negative values force the stage
	// off even if ML asked for it. Zero leaves ML.RefineWorkers as given.
	RefineWorkers int
	// LocalizedFMWorkers, when nonzero, overrides ML.LocalizedFMWorkers the
	// same way: positive values enable the localized FM stage at the finest
	// level at that worker count (every count >= 1 is bit-identical),
	// negative values force the stage off even if ML asked for it. Zero
	// leaves ML.LocalizedFMWorkers as given.
	LocalizedFMWorkers int
	// SharedHierarchies, when positive, runs each multistart cell over that
	// many shared coarsening hierarchies (multilevel.Spec.Hierarchies):
	// cheaper sweeps at a small cut penalty from follower descents. Zero
	// keeps the paper's protocol of fully independent starts.
	SharedHierarchies int
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
	if c.RefineWorkers > 0 {
		c.ML.RefineWorkers = c.RefineWorkers
	} else if c.RefineWorkers < 0 {
		c.ML.RefineWorkers = 0
	}
	if c.LocalizedFMWorkers > 0 {
		c.ML.LocalizedFMWorkers = c.LocalizedFMWorkers
	} else if c.LocalizedFMWorkers < 0 {
		c.ML.LocalizedFMWorkers = 0
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

// sweepJob is one independent unit of the sweep protocol: a (regime,
// fraction, trial, starts) cell. Jobs run concurrently on a bounded worker
// pool; each derives its RNG from the sweep seed and its own index, so the
// dataset is identical for every worker count.
type sweepJob struct {
	prob   *partition.Problem
	starts int
	cut    int64
	cpu    time.Duration
	err    error
}

// RunSweep executes the paper's Figure 1/2 protocol on h, running its
// independent (regime, fraction, trial) cells on cfg.Workers goroutines.
func RunSweep(name string, h *hypergraph.Hypergraph, cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xf19a7e))
	base := partition.NewBipartition(h, cfg.Tolerance)

	// Best-known solution of the unconstrained instance ("good" reference).
	best, err := solve(base, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: finding good solution for %s: %w", name, err)
	}
	sched, err := NewFixSchedule(h, 2, best.Assignment, rng)
	if err != nil {
		return nil, err
	}
	res := &SweepResult{
		Instance:     name,
		Vertices:     h.NumVertices(),
		BestFreeCut:  best.Cut,
		GoodSolution: best.Assignment,
		RandBest:     map[float64]int64{},
	}

	// Flatten the protocol into independent jobs, one per (regime, fraction,
	// trial, starts) cell; all trials of a (regime, fraction) pair share one
	// problem (read-only during solving).
	cellSeed := rng.Uint64()
	var jobs []sweepJob
	for _, regime := range []Regime{Good, Rand} {
		for _, frac := range cfg.Fractions {
			prob := sched.Apply(base, frac, regime)
			for trial := 0; trial < cfg.Trials; trial++ {
				for _, starts := range cfg.Starts {
					jobs = append(jobs, sweepJob{prob: prob, starts: starts})
				}
			}
		}
	}
	runCells(jobs, cellSeed, cfg.Workers, cfg.ML, cfg.SharedHierarchies)

	// Aggregate in deterministic job order.
	j := 0
	for _, regime := range []Regime{Good, Rand} {
		for _, frac := range cfg.Fractions {
			type cell struct {
				sumCut float64
				sumCPU time.Duration
			}
			cells := make([]cell, len(cfg.Starts))
			instBest := int64(1) << 62
			for trial := 0; trial < cfg.Trials; trial++ {
				for si := range cfg.Starts {
					job := &jobs[j]
					j++
					if job.err != nil {
						return nil, fmt.Errorf("experiments: %s %v %.1f%% starts=%d: %w",
							name, regime, 100*frac, job.starts, job.err)
					}
					cells[si].sumCut += float64(job.cut)
					cells[si].sumCPU += job.cpu
					if job.cut < instBest {
						instBest = job.cut
					}
				}
			}
			if regime == Rand {
				res.RandBest[frac] = instBest
			}
			for si, starts := range cfg.Starts {
				pt := SweepPoint{
					Regime:     regime,
					Fraction:   frac,
					Starts:     starts,
					AvgBestCut: cells[si].sumCut / float64(cfg.Trials),
					AvgCPU:     cells[si].sumCPU / time.Duration(cfg.Trials),
				}
				ref := float64(best.Cut)
				if regime == Rand {
					ref = float64(instBest)
				}
				if ref > 0 {
					pt.Normalized = pt.AvgBestCut / ref
				} else {
					pt.Normalized = 1
				}
				res.Points = append(res.Points, pt)
			}
		}
	}
	return res, nil
}

// runCells executes the jobs concurrently. Job i's RNG derives from
// (cellSeed, i), so the outcome of every cell is independent of scheduling.
// With sharedHierarchies > 0, multistart cells amortise coarsening through
// shared hierarchies (single-start cells gain nothing from sharing and
// keep the plain path).
func runCells(jobs []sweepJob, cellSeed uint64, workers int, ml multilevel.Config, sharedHierarchies int) {
	par.ForEach(len(jobs), workers, func(i int) {
		job := &jobs[i]
		rng := rand.New(rand.NewPCG(cellSeed, uint64(i)))
		t0 := time.Now()
		r, err := solve(job.prob, ml, 1, multilevel.Spec{Starts: job.starts, Hierarchies: sharedHierarchies}, rng)
		job.cpu = time.Since(t0)
		if err != nil {
			job.err = err
			return
		}
		job.cut = r.Cut
	})
}

// withWorkers returns ml with its worker bound overridden by the sweep-level
// setting, for the protocol phases that parallelize inside one multistart
// (reference-solution search) rather than across cells.
// solve runs multilevel.Solve without cancellation on a pool of `workers`
// start goroutines. Study cells already run inside par.ForEach, so they pass
// 1 and stay serial.
func solve(p *partition.Problem, ml multilevel.Config, workers int, spec multilevel.Spec, rng *rand.Rand) (*multilevel.Result, error) {
	ml.Workers = workers
	return multilevel.Solve(context.Background(), p, ml, spec, rng)
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

// StartsBenefit returns, for the given regime and fraction, the relative
// quality advantage of the largest multistart trace over the single-start
// trace: (avg cut at 1 start) / (avg cut at max starts). Values near 1 mean
// extra starts buy nothing — the paper's "instances with many fixed
// terminals are easy" signal.
func (r *SweepResult) StartsBenefit(regime Regime, fraction float64) float64 {
	var one, most *SweepPoint
	maxStarts := 0
	for i := range r.Points {
		p := &r.Points[i]
		if p.Regime != regime || p.Fraction != fraction {
			continue
		}
		if p.Starts == 1 {
			one = p
		}
		if p.Starts > maxStarts {
			maxStarts = p.Starts
			most = p
		}
	}
	if one == nil || most == nil || most.AvgBestCut == 0 {
		return 1
	}
	return one.AvgBestCut / most.AvgBestCut
}
