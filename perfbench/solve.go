package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// solve-k4-fixed: one library client solving 4-way km1 instances with 20% of
// their vertices fixed to random parts, the paper's fixed-fraction protocol.
// With that many fixed vertices the finest-level localized FM stage carries
// most of the solve, so this is the workload a localized-FM change moves.
//
// Every op solves a new fixed-vertex draw on the same circuit (op i draws
// instance i from the run seed), so a run's median spans many instances and
// one hard draw does not set it. The first measured op repeats the warm-up's
// instance; a repeated instance must repeat its answer.
const (
	solveScale   = 0.01 // of HUGE1: about 10k cells
	solveK       = 4
	solveTol     = 0.05
	solveFixFrac = 0.20
	solveStarts  = 2
	// objectiveOps is how many instances the objective averages over; every
	// run measures at least this many ops.
	objectiveOps = 8
)

func newSolve(seed uint64, nproc int) (*workload, error) {
	pr, err := gen.PresetByName("HUGE1")
	if err != nil {
		return nil, err
	}
	nl, err := gen.Generate(pr.Params.Scaled(solveScale))
	if err != nil {
		return nil, err
	}
	b := &solveBench{h: nl.H, seed: seed, km1: map[int]int64{}, cfg: multilevel.Config{
		Objective:          fm.ObjectiveKM1,
		Workers:            1,
		CoarsenWorkers:     nproc,
		RefineWorkers:      nproc,
		LocalizedFMWorkers: nproc,
	}}
	first, err := b.problem(0)
	if err != nil {
		return nil, err
	}
	return &workload{
		clients:   1,
		cycle:     1,
		minCycles: objectiveOps,
		next:      b.next,
		objective: func() float64 { return meanOver(b.km1) },
		layers: func(tr *trace) error {
			return directLocalized(tr, first, fm.ObjectiveKM1, b.cfg.LocalizedFMWorkers, seed)
		},
		knobs: map[string]any{
			"k": solveK, "tolerance": solveTol, "objective": "km1", "starts": solveStarts,
			"fix_fraction": solveFixFrac, "workers": b.cfg.Workers, "coarsen_workers": b.cfg.CoarsenWorkers,
			"refine_workers": b.cfg.RefineWorkers, "localized_fm_workers": b.cfg.LocalizedFMWorkers,
		},
		instance: problemSize(first),
	}, nil
}

type solveBench struct {
	h     *hypergraph.Hypergraph
	cfg   multilevel.Config
	seed  uint64
	calls int
	km1   map[int]int64 // by instance; a repeated instance must repeat it
}

// problem builds instance i: the circuit with its own 20% fixed-vertex draw.
func (b *solveBench) problem(i int) (*partition.Problem, error) {
	p := partition.NewFree(b.h, solveK, solveTol)
	partition.ApplyFixFraction(p, solveFixFrac, mix(b.seed, uint64(i)))
	return p, p.Validate()
}

func (b *solveBench) next() ([]op, error) {
	i := max(0, b.calls-1)
	b.calls++
	p, err := b.problem(i)
	if err != nil {
		return nil, err
	}
	return []op{&solveOp{b: b, i: i, p: p}}, nil
}

type solveOp struct {
	b     *solveBench
	i     int
	p     *partition.Problem
	res   *multilevel.Result
	err   error
	stats *multilevel.PhaseStats
}

func (o *solveOp) run(traced bool) {
	cfg := o.b.cfg
	if traced {
		o.stats = &multilevel.PhaseStats{}
		cfg.Stats = o.stats
	}
	rng := rand.New(rand.NewPCG(mix(o.b.seed, uint64(o.i)), 0x501))
	o.res, o.err = multilevel.ParallelMultistartKWayCtx(context.Background(), o.p, cfg, solveStarts, rng)
}

func (o *solveOp) check(tr *trace, rs roundStats) error {
	if o.err != nil {
		return fmt.Errorf("solve: %w", o.err)
	}
	t0 := time.Now()
	err := checkPartition(o.p, o.res.Assignment, o.res.Cut, o.res.KMinus1)
	checkS := time.Since(t0).Seconds()
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if err := repeats(o.b.km1, o.i, o.res.KMinus1); err != nil {
		return fmt.Errorf("solve: km1 %w", err)
	}
	if tr != nil {
		tr.ops++
		tr.checkS += checkS
		tr.addPhases(o.stats)
		tr.levels += float64(o.res.Levels)
		tr.unattributed += rs.wall - ns(o.stats.TotalNS())
	}
	return nil
}

// repeats records value v for instance i, or checks that it matches the
// value recorded the first time instance i ran.
func repeats[T comparable](seen map[int]T, i int, v T) error {
	if first, ok := seen[i]; ok && first != v {
		return fmt.Errorf("%v differs from %v on the same instance", v, first)
	}
	seen[i] = v
	return nil
}

// meanOver averages the values of instances 0 .. objectiveOps-1.
func meanOver[T int64 | float64](byInstance map[int]T) float64 {
	var sum float64
	for i := 0; i < objectiveOps; i++ {
		sum += float64(byInstance[i])
	}
	return sum / objectiveOps
}

// directLocalized runs fm.LocalizedRefine directly on a finest-level
// instance from a seeded random feasible start and records the kernel's own
// counters in tr.
func directLocalized(tr *trace, p *partition.Problem, obj fm.Objective, workers int, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x10c))
	a, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return fmt.Errorf("localized start: %w", err)
	}
	res, err := fm.LocalizedRefine(p, a, fm.Config{Objective: obj}, workers, rng.Uint64())
	if err != nil {
		return fmt.Errorf("localized refine: %w", err)
	}
	if err := checkPartition(p, res.Assignment, partition.Cut(p.H, res.Assignment), partition.KMinus1(p.H, a)-res.Gain); err != nil {
		return fmt.Errorf("localized refine: %w", err)
	}
	tr.localized = res
	return nil
}

// checkPartition is the independent output check: a must satisfy every
// fixed and OR-region mask and the balance on every resource, and the
// reported cut and km1 must match a fresh recount.
func checkPartition(p *partition.Problem, a partition.Assignment, cut, km1 int64) error {
	if err := p.Feasible(a); err != nil {
		return err
	}
	if got := partition.Cut(p.H, a); got != cut {
		return fmt.Errorf("reported cut %d, recount %d", cut, got)
	}
	if got := partition.KMinus1(p.H, a); got != km1 {
		return fmt.Errorf("reported km1 %d, recount %d", km1, got)
	}
	return nil
}

func problemSize(p *partition.Problem) map[string]any {
	return map[string]any{
		"vertices": p.H.NumVertices(), "nets": p.H.NumNets(),
		"pins": p.H.NumPins(), "fixed": p.NumFixed(),
	}
}

// mix derives an independent sub-seed for input i from the run seed
// (splitmix64 finalizer).
func mix(seed, i uint64) uint64 {
	z := seed + i*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
