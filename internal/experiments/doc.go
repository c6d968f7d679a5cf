// Package experiments implements the paper's experimental protocol: nested
// random fixing of vertex subsets in the "good" and "rand" regimes, the
// multistart sweeps behind Figures 1 and 2, the flat-FM pass-statistics
// study of Table II, the pass-cutoff study of Table III, the
// benchmark-parameter reporting of Tables I and IV, and the extension
// studies (multiway, constraint strength, within-pass gain profiles,
// multistart effort, objective, CLIP-vs-LIFO refinement policy).
// cmd/experiments is the one harness that runs and renders all of them.
//
// # Concurrency and determinism
//
// Every study starts from one fixture: the best-known solution of the free
// instance and a nested fixing schedule drawn for it. The multistart studies
// (RunSweep, ConstraintStudy, StartsRequired, ObjectiveStudy) then hand their
// (regime, fraction) groups to one cell runner, which runs cell j < per of
// group g on a bounded worker pool via internal/par. Cell i = g*per + j draws
// from its own stream rand.NewPCG(seed, i), never from shared state, and
// writes into slot i, so every table and figure is bit-identical for every
// worker count; each study only reduces the cells of a group into its row.
// The single-start studies (Tables II and III, the pass profile, the policy
// study) and MultiwaySweep run serially on one shared RNG. The nested fixing schedule is monotone by construction:
// the vertices fixed at fraction f are a subset of those fixed at any f' > f
// within one trial, matching the paper's protocol.
package experiments
