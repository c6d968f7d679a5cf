package multilevel

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/partition"
)

// The paper's engine configuration, fixed: coarsening stops once at most
// coarsestSize movable vertices remain, once a level fails to shrink the
// vertex count to clusteringRatio of the finer one, or after maxLevels
// levels; nets with more than hugeNetThreshold pins are ignored while scoring
// matches (they carry almost no clustering signal and cost quadratic time);
// the coarsest level takes the best of initialTries refined starts; and
// follower descents (Spec.Hierarchies, MultistartOnHierarchies) refine under
// the pass cutoff followerPassFraction. No other setting changes what
// coarsening builds, so CoarseningFingerprint hashes the first four.
const (
	coarsestSize         = 120
	clusteringRatio      = 0.9
	maxLevels            = 40
	hugeNetThreshold     = 50
	initialTries         = 4
	followerPassFraction = 0.10
)

// Config controls the multilevel partitioner. The zero value reproduces the
// paper's engine configuration: CLIP refinement over the fixed heavy-edge
// coarsening above, with no V-cycling.
type Config struct {
	// Policy is the FM refinement discipline; the zero value is the paper's
	// engine default, CLIP. (The paper notes LIFO gives very similar
	// results.)
	Policy fm.Policy
	// Objective selects the metric the FM kernels score by and every driver
	// selects on (multistart best-of, adaptive patience).
	// The zero value, fm.ObjectiveCut, reproduces the historical engine bit
	// for bit; fm.ObjectiveKM1 ranks candidates by connectivity-minus-one.
	// Coarsening is objective-independent, so cached hierarchies may serve
	// either objective.
	Objective fm.Objective
	// MaxPassFraction applies the paper's pass cutoff to every refinement FM
	// run (0 or 1 disables; values outside [0,1] are rejected).
	MaxPassFraction float64
	// Workers bounds the pool of goroutines that Solve and
	// MultistartOnHierarchies run independent starts on (<= 0 means
	// runtime.GOMAXPROCS; 1 runs every start serially on the calling
	// goroutine). It never affects results: output is bit-identical for
	// every worker count.
	Workers int
	// CoarsenWorkers parallelizes the heavy-edge matching inside each
	// coarsening descent: its propose and resolve scans split over this many
	// goroutines (default/<= 0 means 1, fully serial on the calling
	// goroutine). Contraction is always serial. Like Workers it never
	// affects results — matching is propose/resolve with deterministic
	// conflict resolution, so hierarchies, cuts and fingerprints are
	// bit-identical for every value.
	CoarsenWorkers int
	// RefineWorkers enables the deterministic synchronous-round parallel
	// refinement stage (fm.Level.Rounds) during uncoarsening: at every
	// level the stage runs before the serial FM polish, and at coarse levels
	// the polish is capped to a single pass (the rounds replace its repeated
	// passes; the finest level keeps the full configured polish). <= 0
	// disables the stage entirely — refinement is exactly the serial-only
	// path, bit for bit. Any value >= 1 produces bit-identical results to
	// every other value >= 1 (the rounds are propose/commit with a
	// deterministic commit order; worker chunks only split the scans), but
	// enabling the stage does change results relative to serial-only: the
	// rounds commit their own move sequence and draw one RNG value per
	// refined level.
	RefineWorkers int
	// LocalizedFMWorkers enables the deterministic localized parallel FM
	// stage (fm.Level.Localized) at the finest level of every descent:
	// bounded FM searches seeded from boundary vertices run on this many
	// workers and replace the full-budget serial polish there, which drops to
	// a single-pass serial tail. <= 0 disables the stage — the finest level
	// keeps the full configured serial polish, bit for bit the seed pipeline.
	// Any value >= 1 produces bit-identical results to every other value
	// >= 1 (searches are pure functions of the round-start state and batch
	// index; the work queue only balances load), but enabling the stage does
	// change results relative to off: the searches commit their own move
	// sequence and draw one RNG value at the finest level of each descent.
	LocalizedFMWorkers int
	// Stats, when non-nil, accumulates per-phase wall time (coarsen /
	// initial partitioning / the three refinement stages) and the FM
	// kernel's work counters over every descent run with this
	// config, on the 2-way and the direct k-way path alike. Counters are
	// updated atomically, so concurrent runs may share one PhaseStats.
	Stats *PhaseStats
}

// validate rejects config values no descent can honour, naming the field.
func (c Config) validate() error {
	if !(c.MaxPassFraction >= 0 && c.MaxPassFraction <= 1) { // NaN fails too
		return fmt.Errorf("multilevel: MaxPassFraction %v outside [0,1]", c.MaxPassFraction)
	}
	return nil
}

// Result is the outcome of a multilevel run. Every result reports all three
// standard hypergraph objectives of its assignment — cut, connectivity-minus-
// one and sum-of-external-degrees — regardless of which one the run
// optimized; Score repeats the one the config's Objective selected on.
type Result struct {
	Assignment partition.Assignment
	Cut        int64
	// KMinus1 is the connectivity-minus-one objective of Assignment.
	KMinus1 int64
	// SOED is the sum-of-external-degrees objective of Assignment
	// (== KMinus1 + Cut for any assignment).
	SOED int64
	// Score is Assignment under the config's Objective (== Cut for
	// fm.ObjectiveCut, == KMinus1 for fm.ObjectiveKM1); drivers select the
	// best start by this number.
	Score int64
	// Objective is the metric the run optimized and Score reports.
	Objective fm.Objective
	// Levels is the number of coarsening levels used (0 = flat).
	Levels int
	// Starts is the number of independent starts contributing to this result
	// (1 for Partition, Spec.Starts for Solve). It is the number of starts
	// that actually completed, which may be fewer than requested when the
	// patience rule stopped the run or its context was cancelled.
	Starts int
	// Truncated reports that a run was cancelled before all requested
	// starts ran: the result is the best of the completed prefix —
	// still a valid, feasible partition — but not necessarily the answer the
	// full run would have returned.
	Truncated bool
}

// newResult evaluates a finished assignment under all three reported
// objectives (via the partition helpers, by definition) and fills Score from
// the config's Objective. Every driver funnels its final assignment through
// here, so the observability satellite — km1 and soed alongside cut in every
// solve result — holds at every entry point.
func newResult(p *partition.Problem, a partition.Assignment, cfg Config, levels int) *Result {
	r := &Result{
		Assignment: a,
		Cut:        partition.Cut(p.H, a),
		KMinus1:    partition.KMinus1(p.H, a),
		SOED:       partition.SOED(p.H, a),
		Objective:  cfg.Objective,
		Levels:     levels,
		Starts:     1,
	}
	r.Score = r.Cut
	if cfg.Objective == fm.ObjectiveKM1 {
		r.Score = r.KMinus1
	}
	return r
}

// Partition runs one start of the multilevel FM partitioner on the 2-way
// problem p: one coarsening descent followed by one full-refinement descent
// over the hierarchy it built.
func Partition(p *partition.Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	if p.K != 2 {
		return nil, fmt.Errorf("multilevel: Partition requires k=2, got k=%d (use RecursiveBisect)", p.K)
	}
	return partitionOne(p, cfg, false, rng)
}

// partitionOne validates p and cfg, then coarsens and descends once on rng
// with 2-way (kway false) or direct k-way (kway true) FM.
func partitionOne(p *partition.Problem, cfg Config, kway bool, rng *rand.Rand) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	return coarsen(p, cfg, kway, rng).descendWith(rng, false, sc)
}

func project(coarse partition.Assignment, clusterOf []int32) partition.Assignment {
	fine := make(partition.Assignment, len(clusterOf))
	for v, c := range clusterOf {
		fine[v] = coarse[c]
	}
	return fine
}
