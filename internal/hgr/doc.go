// Package hgr reads and writes the hypergraph-partitioning ecosystem's
// exchange formats: hMetis .hgr netlists (plain, edge-weighted,
// vertex-weighted and both — fmt codes 0, 1, 10 and 11), KaHyPar-style
// fixed-vertex .fix files (one line per vertex: -1 for free, a part id to
// fix, several part ids as this repository's OR-region extension); it also
// writes the partition output file hMetis-family tools emit and placement
// flows such as Coloquinte read back (one part id per line). Everything
// converts to and from the repository's own types: hypergraph.Hypergraph,
// partition.Mask slices and partition.Problem.
//
// The readers are built for hostile input. They stream byte by byte —
// memory is bounded by the configurable Limits, never by what the input
// *claims* (a multi-gigabyte net line costs one token of buffer) — and every
// rejection is a line-numbered error with a stable, documented message
// prefix (see FORMATS.md for the full error taxonomy). Structural
// infeasibility that would otherwise surface as a mid-solve failure — a
// vertex heavier than every part it may occupy, fixed vertices that overfill
// a part — is rejected up front by CheckFeasible, which ReadProblem applies
// before returning.
//
// Determinism and concurrency contract: all functions in this package are
// pure — output depends only on the bytes read and the arguments, with no
// randomness, map iteration or time dependence, so a file parses to a
// hypergraph with the same Fingerprint on every run and host. None of the
// functions retain or mutate their arguments after returning; distinct
// reader/writer calls may run concurrently. An *os.File or any other
// io.Reader may only be shared across concurrent calls if the callers
// arrange their own synchronization, as usual.
package hgr
