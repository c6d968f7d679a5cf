package fm

import (
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// LocalizedRefineReference exposes the frozen pre-incremental localized
// engine (localized_reference_test.go) to the external differential tests.
var LocalizedRefineReference = localizedRefineReference

// ParallelRefineReference exposes the frozen round engine
// (parallel_reference_test.go) to the external differential tests.
var ParallelRefineReference = parallelRefineReference

// BipartitionReference and KWayPartitionReference expose the frozen
// pre-rewrite kernel (reference_test.go) to the external differential tests.
var (
	BipartitionReference   = bipartitionReference
	KWayPartitionReference = kwayPartitionReference
)

// PairwiseReference exposes the frozen pairwise sweep driver
// (reference_test.go) to the external differential tests.
var PairwiseReference = pairwiseReference

// Score computes the objective value of an assignment from scratch: the
// independent recount FuzzFMKernel checks every reported Score against.
func (o Objective) Score(h *hypergraph.Hypergraph, a partition.Assignment) int64 {
	if o == ObjectiveKM1 {
		return partition.KMinus1(h, a)
	}
	return partition.Cut(h, a)
}
