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
	return coarsen(p, cfg.effective(), false, rng)
}

// Descend runs one full-refinement start over the hierarchy.
func (h *Hierarchy) Descend(rng *rand.Rand) (*Result, error) {
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	return h.descendWith(rng, false, sc)
}

// Coarsest returns the coarsest problem of the stack.
func (h *Hierarchy) Coarsest() *partition.Problem { return h.levels[len(h.levels)-1].problem }

// BuildKWayHierarchy is the coarsening descent of one PartitionKWay start.
func BuildKWayHierarchy(p *partition.Problem, cfg Config, rng *rand.Rand) *Hierarchy {
	return coarsen(p, cfg.effective(), true, rng)
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
