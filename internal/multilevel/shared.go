package multilevel

import (
	"context"
	"fmt"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// This file is the hierarchy-sharing seam the hpartd service runs on:
// coarsening hierarchies built once as a pure function of a cache key, and
// multistart descents over them that never pay for coarsening.

// BuildHierarchies builds n independent coarsening hierarchies for the 2-way
// problem p, hierarchy j on the deterministic RNG rand.NewPCG(seed, j). The
// result is a pure function of (p, cfg, n, seed) — no timing, no worker
// count — which is what lets hpartd cache hierarchies across requests: any
// request that derives the same (instance fingerprint, coarsening
// fingerprint, n, seed) key reuses them and gets answers bit-identical to a
// cold build. Cancellation is checked between hierarchies; a cancelled build
// returns ctx.Err() and no hierarchies.
func BuildHierarchies(ctx context.Context, p *partition.Problem, cfg Config, n int, seed uint64) ([]*Hierarchy, error) {
	if p.K != 2 {
		return nil, fmt.Errorf("multilevel: BuildHierarchies requires k=2, got k=%d", p.K)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		n = 1
	}
	hiers := make([]*Hierarchy, 0, n)
	for j := 0; j < n; j++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		hiers = append(hiers, coarsen(p, cfg, false, startRNG(seed, j)))
	}
	return hiers, nil
}

// withRefinement returns a Hierarchy that shares h's (immutable) coarsening
// stack but descends with cfg's refinement settings — policy, objective,
// pass cutoff, worker counts and the stats sink. Coarsening reads no Config
// field that changes its result, so a cached hierarchy serves any request.
func (h *Hierarchy) withRefinement(cfg Config) *Hierarchy {
	return &Hierarchy{levels: h.levels, cfg: cfg, kway: h.kway}
}

// CoarseningFingerprint returns a stable hash of the constants that shape
// every hierarchy: the coarsest size, the level bound, the huge-net
// threshold and the clustering ratio. A hierarchy cache folds it into its
// keys, so changing any of them retires every cached entry.
func CoarseningFingerprint() uint64 {
	return hypergraph.NewFingerprint().
		Word(0). // the former heavy-edge scheme id, kept so cache keys and build seeds do not move
		Word(coarsestSize).
		Word(maxLevels).
		Word(hugeNetThreshold).
		Word(uint64(int64(clusteringRatio * 1e9))).
		Sum()
}

// MultistartOnHierarchies runs `starts` refinement-only descents over
// prebuilt hierarchies — the hpartd warm path, where the hierarchies come
// from the cache and no request pays for coarsening. Start i descends
// hierarchy i % len(hiers) on rand.NewPCG(baseSeed, i), as Solve's starts
// on shared hierarchies do. The outcome is a pure function of (hiers, cfg,
// starts, baseSeed) for any worker count; under cancellation Solve's
// best-of-completed-prefix contract applies. Hierarchies are immutable, so
// any number of concurrent calls may share them.
func MultistartOnHierarchies(ctx context.Context, hiers []*Hierarchy, cfg Config, starts int, baseSeed uint64) (*Result, error) {
	if len(hiers) == 0 {
		return nil, fmt.Errorf("multilevel: MultistartOnHierarchies needs at least one hierarchy")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	bound := make([]*Hierarchy, len(hiers))
	for j, hier := range hiers {
		bound[j] = hier.withRefinement(cfg)
	}
	s := newScheduler(ctx, cfg.Workers, 0, starts)
	defer s.release()
	s.run(s.requested, func(i int, sc *fm.Scratch) (*Result, error) {
		return bound[i%len(bound)].descendWith(startRNG(baseSeed, i), sc)
	})
	return s.result()
}
