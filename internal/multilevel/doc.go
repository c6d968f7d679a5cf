// Package multilevel implements the multilevel FM hypergraph partitioner the
// paper uses as its testbed engine: heavy-edge-matching coarsening that
// respects fixed vertices, random feasible initial solutions at the coarsest
// level, and FM refinement during uncoarsening (CLIP, the zero fm.Policy, by
// default; no V-cycling), plus recursive bisection and a direct k-way driver
// for k > 2.
// The coarsening parameters are the paper's, fixed as package constants.
//
// Solve is the one multistart entry point. Its Spec selects the number of
// starts, 2-way or direct k-way descents, shared coarsening hierarchies with
// cheap "follower" descents, and adaptive patience. Partition and
// RecursiveBisect run single starts; BuildHierarchies and
// MultistartOnHierarchies split coarsening from refinement for the hpartd
// hierarchy cache. Every descent — 2-way and k-way — refines each level
// with the same step: synchronous rounds, localized FM at the finest level,
// then the serial polish.
//
// # Concurrency
//
// Solve and MultistartOnHierarchies run independent starts on Config.Workers
// goroutines (1 is fully serial); the single-start entry points run on the
// calling goroutine. Inside any start, CoarsenWorkers, RefineWorkers and
// LocalizedFMWorkers split their stage's scans over goroutines via
// internal/par. Every entry point is safe to call from many goroutines at
// once. A Hierarchy is immutable once built: any number of concurrent
// descents — including descents under different refinement configurations,
// which share the levels and rebind only the config — may read it
// simultaneously. This immutability is what lets the hpartd
// server cache hierarchies across concurrent requests.
//
// # Determinism
//
// Start i of a multistart run runs on its own RNG stream derived as
// startRNG(baseSeed, i) from the caller's seed, never from shared state, so
// for a fixed seed the winning start, assignment and cut are bit-identical
// for every worker count, including 1. Cancellation keeps a prefix
// contract: the scheduler hands out start indices in order, so a run cut
// short by its context has completed exactly the starts [0, Result.Starts)
// and returns their best — the same answer an uncancelled run over only
// those starts would produce. The prefix *length* is timing-dependent;
// Result.Truncated marks it. A run cancelled before any start completes
// returns an error rather than a partial result.
package multilevel
