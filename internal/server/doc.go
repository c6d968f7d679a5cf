// Package server implements hpartd, the HTTP partitioning service: it
// accepts partition requests (an uploaded hypergraph or a named generator
// preset, plus fixed-vertex masks, k, balance, policy and start counts),
// runs them on the multilevel engine's cancellable multistart drivers, and
// returns assignments, cuts and per-phase statistics as JSON.
//
// The service exists because the paper's fixed-vertex instances arise as
// many small, related subproblems of one top-down placement: the same
// netlist is partitioned over and over under different constraints, so a
// long-running process that amortizes setup beats a fresh solver invocation
// per call. Three mechanisms deliver that:
//
//   - Hierarchy cache. Coarsening hierarchies are cached under a key that is
//     a pure function of the instance (partition.Problem.Fingerprint, or the
//     preset parameters before generation), the coarsening-relevant config
//     (multilevel.CoarseningFingerprint) and the hierarchy count.
//     Repeated requests against the same netlist skip generation/parsing and
//     coarsening entirely and run refinement-only descents
//     (multilevel.MultistartOnHierarchies). Hierarchies are immutable, so
//     any number of concurrent requests share a cached entry; duplicate
//     concurrent builds of the same key are collapsed to one (the losers
//     wait and count as cache hits).
//   - Admission control. A bounded worker semaphore caps concurrent solves,
//     a bounded queue caps waiters (429 + Retry-After beyond it), body and
//     instance-size limits reject oversized uploads (413), and every run is
//     governed by a per-request timeout threaded as a context.Context into
//     the multistart drivers — a timed-out run returns the best result
//     computed so far, marked "truncated", rather than nothing.
//   - Observability. /metrics exposes request counts, latency histograms,
//     cache hit/miss/eviction counters and the engine's aggregated phase and
//     FM-kernel counters in Prometheus text format (no external
//     dependencies); /debug/pprof serves live profiles with the multilevel
//     phase labels intact.
//
// Concurrency and determinism contract: request handling is fully
// concurrent; all shared state (cache, metrics, admission counters) is
// internally synchronized. Worker counts and refinement stages are the
// server's Config, never the request's. A request's result is a pure
// function of its JSON body and the Config's stage switches — cache hit or
// miss, any worker count — EXCEPT when the run is
// cut short by timeout, cancellation or shutdown, in which case the response
// is the best of a timing-dependent prefix of the start sequence and says
// so via "truncated": true. Graceful shutdown (Server.Shutdown) stops
// admitting new work, lets in-flight runs drain, and hard-cancels them via
// their contexts only when the drain deadline expires.
package server
