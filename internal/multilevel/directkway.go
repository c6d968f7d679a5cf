package multilevel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fm"
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

// pairwiseRefine improves a feasible k-way assignment with 2-way FM between
// part pairs: for each pair (x, y) that currently shares a cut net, every
// vertex outside the pair is fixed at its part and the FM kernel runs
// restricted to moves between x and y. Pair moves carry full FM hill-climbing
// power (uphill prefixes with rollback), which single-vertex k-way passes
// lack, so this recovers recursive-bisection-strength refinement inside the
// direct driver. Sweeps repeat (pairs in lexicographic order, so the result
// is deterministic) until a sweep fails to improve or maxSweeps is reached.
func pairwiseRefine(p *partition.Problem, a partition.Assignment, cfg fm.Config, maxSweeps int, sc *fm.Scratch) (partition.Assignment, error) {
	nv := p.H.NumVertices()
	prev := partition.KMinus1(p.H, a)
	active := make([]bool, p.K*p.K)
	allowed := make([]partition.Mask, nv)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// A pair is worth refining only if some net spans both parts.
		clear(active)
		for e := 0; e < p.H.NumNets(); e++ {
			var span partition.Mask
			for _, v := range p.H.Pins(e) {
				span = span.With(int(a[v]))
			}
			for x := 0; x < p.K; x++ {
				if !span.Contains(x) {
					continue
				}
				for y := x + 1; y < p.K; y++ {
					if span.Contains(y) {
						active[x*p.K+y] = true
					}
				}
			}
		}
		for x := 0; x < p.K; x++ {
			for y := x + 1; y < p.K; y++ {
				if !active[x*p.K+y] {
					continue
				}
				pair := partition.Single(x).With(y)
				for v := 0; v < nv; v++ {
					if q := int(a[v]); q == x || q == y {
						allowed[v] = p.MaskOf(v).Intersect(pair)
					} else {
						allowed[v] = partition.Single(q)
					}
				}
				// Fresh Problem per pair: the movable-count cache must not
				// leak across mask changes.
				restricted := &partition.Problem{H: p.H, K: p.K, Balance: p.Balance, Allowed: allowed}
				res, err := fm.KWayPartitionWith(restricted, a, cfg, sc)
				if err != nil {
					return nil, fmt.Errorf("multilevel: pairwise refine (%d,%d): %w", x, y, err)
				}
				a = res.Assignment
			}
		}
		cur := partition.KMinus1(p.H, a)
		if cur >= prev {
			break
		}
		prev = cur
	}
	return a, nil
}

// PartitionKWay runs one start of the direct k-way multilevel partitioner:
// the full k-way problem is coarsened once (masks intersect downward, so
// fixed vertices and OR-regions are honoured at every level), partitioned at
// the coarsest level, and refined with direct k-way FM at every level on the
// way back up — in contrast to RecursiveBisect, which decomposes the problem
// into a tree of independent 2-way cuts and cannot recover from early
// bisection mistakes.
//
// The coarsest-level initial partition is the best of cfg.InitialTries
// attempts, each a recursive bisection of the (small) coarsest problem
// refined by k-way FM; attempts fall back to a random feasible assignment
// when bisection cannot satisfy the masks, and the driver backs off toward
// finer levels when heavy clusters leave no feasible start at the coarsest
// one. Works for any 2 <= k <= partition.MaxParts, power of two or not.
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
