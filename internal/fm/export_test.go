package fm

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
