package multilevel

import (
	"math/rand/v2"

	"repro/internal/partition"
)

// kwayMaxCluster caps coarse-cluster weight for a k-way problem: well below
// the tightest part capacity so the coarsest level keeps enough granularity
// near every balance boundary.
func kwayMaxCluster(p *partition.Problem) int64 {
	maxCluster := p.Balance.Max[0][0]
	for q := 1; q < p.K; q++ {
		if p.Balance.Max[q][0] < maxCluster {
			maxCluster = p.Balance.Max[q][0]
		}
	}
	maxCluster /= 20
	if maxCluster < 1 {
		maxCluster = 1
	}
	return maxCluster
}

// kwayInitial produces one feasible k-way seed assignment for the (small)
// coarsest problem: recursive bisection when it can satisfy the masks and
// balance, otherwise a random feasible draw. The bisection's own phases run
// untracked: the caller times the whole seed under the init phase.
func kwayInitial(p *partition.Problem, cfg Config, rng *rand.Rand) (partition.Assignment, bool) {
	cfg.Stats = nil
	if res, err := RecursiveBisect(p, cfg, rng); err == nil {
		return res.Assignment, true
	}
	if a, err := partition.RandomFeasible(p, rng); err == nil {
		return a, true
	}
	return nil, false
}
