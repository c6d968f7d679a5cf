package multilevel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/partition"
)

// VCycle refines an existing feasible solution with one V-cycle in the style
// of hMetis: the hypergraph is re-coarsened *restricted* to the current
// partition (vertices only merge within their part, so the solution projects
// exactly onto every level), then refined level by level from the coarsest
// projection of the current solution.
//
// The paper's engine deliberately omits V-cycling ("a net loss in terms of
// overall cost-runtime profile"); it is provided here both for completeness
// and so that the claim itself can be measured (see BenchmarkVCycleAblation).
// It returns the improved assignment and cut; the input assignment is not
// modified. Works for any k: 2-way problems refine with fm.Bipartition and
// k-way ones with direct k-way FM, since restricted coarsening is
// part-count-agnostic.
func VCycle(p *partition.Problem, a partition.Assignment, cfg Config, rng *rand.Rand) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Feasible(a); err != nil {
		return nil, fmt.Errorf("multilevel: VCycle input: %w", err)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.effective()
	// Restricted coarsening: vertices only merge within their part of a.
	h, sol := buildLevels(p, cfg, kwayMaxCluster(p), a.Clone(), rng)
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	r := refiner{cfg: cfg, polish: refineConfig(cfg), rng: rng, sc: sc}
	top := len(h.levels) - 1
	for lvl := top; lvl >= 0; lvl-- {
		if lvl < top {
			sol = project(sol, h.levels[lvl].clusterOf)
		}
		var err error
		if sol, err = r.level(h.levels[lvl].problem, sol, lvl); err != nil {
			return nil, fmt.Errorf("multilevel: V-cycle: %w", err)
		}
	}
	return newResult(p, sol, cfg, top), nil
}

// vcycles follows res with up to n V-cycles on rng, stopping early when a
// cycle fails to improve the configured objective.
func vcycles(p *partition.Problem, res *Result, cfg Config, n int, rng *rand.Rand) (*Result, error) {
	for i := 0; i < n; i++ {
		vres, err := VCycle(p, res.Assignment, cfg, rng)
		if err != nil {
			return nil, err
		}
		if vres.Score >= res.Score {
			break
		}
		res = vres
	}
	return res, nil
}
