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

// PartitionKWay runs one start of the direct k-way multilevel partitioner:
// the full k-way problem is coarsened once (masks intersect downward, so
// fixed vertices and OR-regions are honoured at every level), partitioned at
// the coarsest level, and refined with direct k-way FM at every level on the
// way back up — in contrast to RecursiveBisect, which decomposes the problem
// into a tree of independent 2-way cuts and cannot recover from early
// bisection mistakes.
//
// The coarsest-level initial partition is the best of four attempts, each a
// recursive bisection of the (small) coarsest problem refined by k-way FM;
// attempts fall back to a random feasible assignment when bisection cannot
// satisfy the masks, and the driver backs off toward finer levels when heavy
// clusters leave no feasible start at the coarsest one. Works for any 2 <= k <= partition.MaxParts, power of two or not.
func PartitionKWay(p *partition.Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	return partitionOne(p, cfg, true, rng)
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
