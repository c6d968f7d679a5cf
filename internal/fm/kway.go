package fm

import (
	"math/rand/v2"

	"repro/internal/partition"
)

// RunFromRandom draws a random feasible starting assignment and refines it
// with flat FM. This is the paper's "single LIFO FM start" building block
// (first pass traditionally begins from a random partitioning).
func RunFromRandom(p *partition.Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, err
	}
	return Bipartition(p, initial, cfg)
}

// RunFromRandomWith is RunFromRandom using the caller's scratch, for drivers
// that hold one Scratch across many runs.
func RunFromRandomWith(p *partition.Problem, cfg Config, rng *rand.Rand, sc *Scratch) (*Result, error) {
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, err
	}
	return BipartitionWith(p, initial, cfg, sc)
}
