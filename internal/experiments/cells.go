package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/par"
	"repro/internal/partition"
)

// fixture is the shared start of every fixed-vertex study: the free
// instance, its best-known solution and a nested fixing schedule drawn for
// that solution.
type fixture struct {
	base  *partition.Problem
	best  *multilevel.Result
	sched *FixSchedule
}

// newFixture solves the free k-way instance of h under spec on `workers`
// start goroutines, then draws the fixing schedule, both from rng.
func newFixture(h *hypergraph.Hypergraph, k int, tol float64, ml multilevel.Config, workers int, spec multilevel.Spec, rng *rand.Rand) (*fixture, error) {
	base := partition.NewFree(h, k, tol)
	best, err := solve(base, ml, workers, spec, rng)
	if err != nil {
		return nil, err
	}
	sched, err := NewFixSchedule(h, k, best.Assignment, rng)
	if err != nil {
		return nil, err
	}
	return &fixture{base: base, best: best, sched: sched}, nil
}

// group is one (regime, fraction) point of a study: the instance its cells
// solve.
type group struct {
	regime Regime
	frac   float64
	prob   *partition.Problem
}

// groups applies the schedule at every fraction, regime by regime.
func (f *fixture) groups(fracs []float64, regimes ...Regime) []group {
	var gs []group
	for _, regime := range regimes {
		for _, frac := range fracs {
			gs = append(gs, group{regime: regime, frac: frac, prob: f.sched.Apply(f.base, frac, regime)})
		}
	}
	return gs
}

// runCells runs fn for cell j < per of every group on `workers` goroutines
// and returns the results in cell order. Cell i = g*per + j draws from
// rand.NewPCG(seed, i): rng returns a fresh generator on that stream at each
// call, so a cell's result never depends on scheduling and every worker
// count gives the same results. The error names the lowest failing cell.
func runCells[T any](gs []group, per int, seed uint64, workers int, fn func(g group, j int, rng func() *rand.Rand) (T, error)) ([]T, error) {
	out := make([]T, len(gs)*per)
	errs := make([]error, len(out))
	par.ForEach(len(out), workers, func(i int) {
		rng := func() *rand.Rand { return rand.New(rand.NewPCG(seed, uint64(i))) }
		out[i], errs[i] = fn(gs[i/per], i%per, rng)
	})
	for i, err := range errs {
		if err != nil {
			g := gs[i/per]
			return nil, fmt.Errorf("%v k=%d %.1f%% cell %d: %w", g.regime, g.prob.K, 100*g.frac, i%per, err)
		}
	}
	return out, nil
}

// solve runs multilevel.Solve without cancellation on a pool of `workers`
// start goroutines. Study cells already run inside runCells, so they pass 1
// and stay serial.
func solve(p *partition.Problem, ml multilevel.Config, workers int, spec multilevel.Spec, rng *rand.Rand) (*multilevel.Result, error) {
	ml.Workers = workers
	return multilevel.Solve(context.Background(), p, ml, spec, rng)
}
