package fm

// LocalizedRefineReference exposes the frozen pre-incremental localized
// engine (localized_reference_test.go) to the external differential tests.
var LocalizedRefineReference = localizedRefineReference

// BipartitionReference and KWayPartitionReference expose the frozen
// pre-rewrite kernel (reference_test.go) to the external differential tests.
var (
	BipartitionReference   = bipartitionReference
	KWayPartitionReference = kwayPartitionReference
)
