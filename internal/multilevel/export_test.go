package multilevel

import (
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/partition"
)

// BuildHierarchy is the coarsening descent of one Partition start:
// Partition(p, cfg, rng) is BuildHierarchy(p, cfg, rng) followed by
// Descend(rng) on the same rng.
func BuildHierarchy(p *partition.Problem, cfg Config, rng *rand.Rand) *Hierarchy {
	return coarsen(p, cfg, false, rng)
}

// Descend runs one refinement start over the hierarchy.
func (h *Hierarchy) Descend(rng *rand.Rand) (*Result, error) {
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	return h.descendWith(rng, sc)
}

// Coarsest returns the coarsest problem of the stack.
func (h *Hierarchy) Coarsest() *partition.Problem { return h.levels[len(h.levels)-1].problem }

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

// BuildKWayHierarchy is the coarsening descent of one PartitionKWay start.
func BuildKWayHierarchy(p *partition.Problem, cfg Config, rng *rand.Rand) *Hierarchy {
	return coarsen(p, cfg, true, rng)
}

// LevelFingerprints returns the Fingerprint of every level's problem,
// finest first.
func (h *Hierarchy) LevelFingerprints() []uint64 {
	out := make([]uint64, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.problem.Fingerprint()
	}
	return out
}
