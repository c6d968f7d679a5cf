// Package fm implements Fiduccia–Mattheyses refinement with fixed vertices
// for any number of parts: a part-count-generic move kernel (LIFO and CLIP
// vertex-selection policies, per-part gain buckets, hard pass-length cutoffs
// — the paper's Section III heuristic — and per-pass statistics, Table II).
// Refine drives the kernel for any k up to partition.MaxParts; at k = 2 it is
// classic FM bipartitioning.
//
// Gain updates are net-state aware: locked nets are short-circuited, 2- and
// 3-pin nets take closed-form fast paths, and bucket repositionings are
// batched per move. The work eliminated this way is counted in KernelStats.
// A frozen copy of the pre-rewrite kernel lives in a test-only file
// (reference_test.go); the differential tests and FuzzFMKernel hold the
// kernel bit-identical to it.
//
// # Objectives
//
// Config.Objective selects the metric a run minimizes: ObjectiveCut (net
// cut, the default) or ObjectiveKM1 (connectivity minus one). The kernel's
// incremental gain arithmetic is λ−1-native — at k = 2 it coincides with
// the classic cut gain — so both objectives follow the identical move
// trajectory; they differ only in the reported Result.Score, which callers
// (the multilevel multistart drivers) use to select among
// candidates. ObjectiveCut runs are bit-identical to the pre-objective
// kernel. There is one model (cutModel, model.go) for every objective; the
// level state's objective only picks which number Score reports.
//
// # One state per level
//
// A Level (level.go) is one level's partition state: Φ, the part weights,
// the assignment, movability with the kernel's lock seeds, the gain table
// and the running (λ−1) connectivity, built once by NewLevel. Its stages —
// Rounds, Localized, Polish and Pairwise — update it in place and leave Φ,
// the weights, the assignment and the running objective exact, so no stage
// rebuilds anything; Score and Cut are read off the state, not recounted.
// The gain table passes from the rounds to localized FM to the kernel's
// first pass while it is exact. Pairwise re-derives each part pair's
// movability and lock seeds from Φ and restores the level's afterwards.
// LocalizedRefine and Refine are each NewLevel plus one stage.
//
// # Localized FM
//
// LocalizedRefine runs many small bounded FM searches in parallel rounds,
// each seeded from a batch of boundary vertices, and commits their best
// prefixes serially in a deterministic order (localized.go). The result is
// bit-identical for every worker count.
//
// Gain maintenance: one from-scratch pricer, cutModel.gainRow, prices every
// target of a vertex in one scan of its nets; the kernel seeds each pass
// from it, and both parallel stages share one round state built on it
// (roundstate.go). A localized search never scans a vertex's nets to price
// it. The run keeps a round-start gain table, one nv × k int64 table
// holding each movable vertex's (λ−1) gain to every target, taken over from
// the level or built in parallel before the first round; the round stage
// reads its proposals from the same table and matches its own frozen copy
// (parallel_reference_test.go) bit for bit. After each commit phase only
// the movable pins of the gain-relevant nets that committed prefixes
// touched are recomputed;
// rolled-back prefixes restore Φ and need no refresh. The boundary the
// searches are seeded from is kept the same way: collected once, then
// updated from the nets each commit phase changed. A search copies a
// candidate's row into a slot-indexed per-search vector (at most
// 64 × k per worker) the first time one of its moves touches the
// candidate's nets. Every later move applies only its threshold
// crossings: Φ(from) 2→1 (+w on every target of the pin left alone in
// from), 1→0 (−w for moving to from), Φ(to) 0→1 (+w for moving to to) and
// 1→2 (−w on every target of the pin that was alone in to). Pricing is
// then only the feasibility loop. Gains are exact integers and the pick
// order is strict, so the engine matches a frozen re-pricing copy
// (localized_reference_test.go) bit for bit.
//
// # Concurrency
//
// A kernel instance (a Refine run, a Level, a Scratch, and
// the gain buckets inside them) is single-goroutine: it may not be shared
// or called concurrently; the parallel stages fan out internally. Parallel
// callers run one kernel (and one Scratch) per
// worker on disjoint problems — the pattern the multilevel multistart
// drivers use. The only shared-safe type is KernelStats: its counters are
// atomics, so any number of kernels may fold their per-run deltas into one
// aggregate concurrently.
//
// # Determinism
//
// Every randomized choice (initial solutions, tie-breaking among equal-gain
// moves) draws from the *rand.Rand passed in by the caller, and nothing
// else: for a given problem, configuration and RNG state the refinement
// trajectory — every move, every pass, the final assignment and cut — is
// bit-identical across runs, platforms and worker counts. Scratch reuse
// does not affect results; a reused Scratch is fully re-initialized.
package fm
