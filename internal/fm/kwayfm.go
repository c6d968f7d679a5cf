package fm

import "repro/internal/partition"

// KWayResult is the outcome of a direct k-way FM run.
type KWayResult struct {
	Assignment partition.Assignment
	// Cut is the weighted net-cut of Assignment (nets spanning > 1 part).
	Cut int64
	// KMinus1 is the connectivity ledger the kernel's passes track.
	KMinus1 int64
	// Score is Assignment evaluated under the run's Objective (== Cut for
	// ObjectiveCut, == KMinus1 for ObjectiveKM1), the number multistart
	// drivers select by.
	Score int64
	// Objective is the metric the run optimized (Config.Objective).
	Objective Objective
	Passes    []PassStats
	// Movable is the number of vertices with at least two allowed parts.
	Movable int
}

// KWayPartition refines a feasible k-way assignment with direct k-way FM in
// the style of Sanchis: every (vertex, target part) move has its own gain
// bucket entry, gains measure the (lambda-1) connectivity delta, passes lock
// each vertex after its first move and roll back to the best prefix, and the
// Config's policy (LIFO or CLIP), pass cutoff and stall cutoff apply as in
// bipartitioning. Fixed vertices and OR-region masks are honoured. Working
// state comes from an internal sync.Pool; use KWayPartitionWith to manage
// the Scratch explicitly.
func KWayPartition(p *partition.Problem, initial partition.Assignment, cfg Config) (*KWayResult, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return KWayPartitionWith(p, initial, cfg, sc)
}

// KWayPartitionWith is KWayPartition running on a caller-provided Scratch.
// It drives the same part-count-generic kernel as BipartitionWith — at k = 2
// the two produce identical refinements — and never aliases scratch memory
// in its result. It is NewLevel followed by Polish.
func KWayPartitionWith(p *partition.Problem, initial partition.Assignment, cfg Config, sc *Scratch) (*KWayResult, error) {
	l, err := NewLevel(p, initial, cfg, sc)
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	passes := l.Polish(cfg)
	return &KWayResult{
		Assignment: l.Assignment(),
		Cut:        l.Cut(),
		KMinus1:    l.km1,
		Score:      l.Score(),
		Objective:  cfg.Objective,
		Passes:     passes,
		Movable:    l.m.nMovable,
	}, nil
}
