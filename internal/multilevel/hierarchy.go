package multilevel

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/fm"
	"repro/internal/partition"
)

// Hierarchy is the product of one coarsening descent: the stack of
// progressively coarser problems plus the cluster maps between them, and the
// algorithm its descents run — 2-way or direct k-way FM. It is immutable
// once built, so many refinement-only descents — serial or concurrent — can
// share it; that is what Solve's
// shared-hierarchy mode exploits to amortise coarsening (and its contraction
// cost) over many starts. A Hierarchy is only sound to share between starts
// of the same problem.
type Hierarchy struct {
	levels []level
	cfg    Config // config the hierarchy was built with
	kway   bool   // descend with direct k-way FM instead of 2-way FM
}

// Root returns the original (finest) problem.
func (h *Hierarchy) Root() *partition.Problem { return h.levels[0].problem }

// Levels returns the number of coarsening levels (0 = the hierarchy is flat).
func (h *Hierarchy) Levels() int { return len(h.levels) - 1 }

// bipartitionMaxCluster caps cluster growth well below the part capacity so
// the coarsest level retains enough granularity near the balance boundary.
func bipartitionMaxCluster(p *partition.Problem) int64 {
	maxCluster := p.Balance.Max[0][0] / 20
	if maxCluster < 1 {
		maxCluster = 1
	}
	return maxCluster
}

// coarsen builds the hierarchy one 2-way (kway false) or direct k-way (kway
// true) start descends, on an already-validated problem and config.
func coarsen(p *partition.Problem, cfg Config, kway bool, rng *rand.Rand) *Hierarchy {
	maxCluster := bipartitionMaxCluster(p)
	if kway {
		maxCluster = kwayMaxCluster(p)
	}
	h := &Hierarchy{cfg: cfg, kway: kway}
	cfg.Stats.track(phaseCoarsen, func() {
		h.levels = []level{{problem: p}}
		for curr := p; len(h.levels) < maxLevels && curr.MovableCount() > coarsestSize; {
			coarse, clusterOf, ok := matchLevel(curr, maxCluster, cfg.CoarsenWorkers, rng)
			if !ok {
				break
			}
			h.levels[len(h.levels)-1].clusterOf = clusterOf
			h.levels = append(h.levels, level{problem: coarse})
			curr = coarse
		}
	})
	return h
}

// descendWith runs one refinement start over the hierarchy on a
// caller-provided FM scratch (scratch contents never influence results, so
// the multistart scheduler pins one per worker). Owner descents
// (follower=false) refine with the full configured FM discipline and replay
// a single start's phases bit-identically; follower descents
// — extra starts resampling a hierarchy another start owns — apply
// followerPassFraction as a pass cutoff during uncoarsening refinement,
// trading a sliver of per-start quality for a large reduction in per-start
// cost (the coarsest initial partitioning, where start diversity comes from,
// stays at full strength).
func (h *Hierarchy) descendWith(rng *rand.Rand, follower bool, sc *fm.Scratch) (*Result, error) {
	cfg := h.cfg
	r := refiner{cfg: cfg, polish: refineConfig(cfg), pairwise: h.kway && h.Root().K > 2, rng: rng, sc: sc}
	if follower {
		r.polish.MaxPassFraction = followerCutoff(cfg)
	}
	initCfg := refineConfig(cfg)

	// Initial partitioning at the deepest level that admits a feasible
	// start; heavy clusters can make the very coarsest level infeasible, in
	// which case we back off toward finer levels.
	start := len(h.levels) - 1
	var a partition.Assignment
	cfg.Stats.track(phaseInit, func() {
		for ; start >= 0; start-- {
			if a = h.initial(h.levels[start].problem, initCfg, rng, sc); a != nil {
				break
			}
		}
	})
	if a == nil {
		return nil, fmt.Errorf("multilevel: no feasible initial solution at any level (instance overconstrained)")
	}
	if r.pairwise {
		var err error
		cfg.Stats.track(phaseRefine, func() {
			var lv *fm.Level
			if lv, err = fm.NewLevel(h.levels[start].problem, a, initCfg, sc); err == nil {
				lv.Pairwise(initCfg, 2)
				a = lv.Assignment()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("multilevel: pairwise refine: %w", err)
		}
	}
	for lvl := start - 1; lvl >= 0; lvl-- {
		var err error
		if a, err = r.level(h.levels[lvl].problem, project(a, h.levels[lvl].clusterOf), lvl); err != nil {
			return nil, err
		}
	}
	return newResult(h.Root(), a, cfg, len(h.levels)-1), nil
}

// initial returns the best of initialTries refined starts on the level
// problem lp, or nil when it admits none. Each try is a seed — a random
// feasible draw for 2-way descents, a recursive-bisection seed (kwayInitial)
// for k-way ones — polished by the FM kernel on sc and ranked by its running
// connectivity: at k = 2 that is the cut every objective coincides with;
// at k > 2 it is exact for km1 and a historical, bit-identity-preserving
// tiebreak for cut, where the multistart scheduler re-ranks completed starts
// by their own Score. A 2-way draw that fails ends the tries; a k-way seed
// that fails skips to the next.
func (h *Hierarchy) initial(lp *partition.Problem, initCfg fm.Config, rng *rand.Rand, sc *fm.Scratch) partition.Assignment {
	var best partition.Assignment
	var bestScore int64
	for try := 0; try < initialTries; try++ {
		var seed partition.Assignment
		if h.kway {
			var ok bool
			if seed, ok = kwayInitial(lp, h.cfg, rng); !ok {
				continue
			}
		} else {
			var err error
			if seed, err = partition.RandomFeasible(lp, rng); err != nil {
				break
			}
		}
		lv, err := fm.NewLevel(lp, seed, initCfg, sc)
		if err != nil {
			if h.kway {
				continue
			}
			break
		}
		lv.Polish(initCfg)
		if best == nil || lv.KMinus1() < bestScore {
			best, bestScore = lv.Assignment(), lv.KMinus1()
		}
	}
	return best
}

// refineConfig is the serial FM configuration of the uncoarsening polish,
// before polishConfig's per-level pass cap.
func refineConfig(cfg Config) fm.Config {
	return fm.Config{Policy: cfg.Policy, Objective: cfg.Objective, MaxPassFraction: cfg.MaxPassFraction, Stats: kernelStats(cfg.Stats)}
}

// refiner is the one per-level refinement step every descent runs, with
// what all the levels of one descent share.
type refiner struct {
	cfg    Config
	polish fm.Config // serial polish config before polishConfig's per-level cap
	// pairwise adds the 2-way pair sweeps after the polish (direct k-way
	// descents at k > 2 only).
	pairwise bool
	rng      *rand.Rand
	sc       *fm.Scratch
}

// level refines the projected assignment a of level lvl's problem p on one
// fm.Level built once for the level: the optional synchronous rounds, then
// (at the finest level) the localized FM stage, then the serial FM polish,
// plus pairwise sweeps when enabled (k-way passes move single vertices; the
// pair sweeps recover the 2-way hill-climbing power recursive bisection gets
// for free). Each stage updates the level's pin counts, part weights,
// assignment and running objective in place and hands its gain table on, so
// nothing is rebuilt between stages. The level is built under the first
// stage's phase; the polish and the sweeps are tracked under the refine
// phase.
func (r *refiner) level(p *partition.Problem, a partition.Assignment, lvl int) (partition.Assignment, error) {
	var lv *fm.Level
	var err error
	build := func() { lv, err = fm.NewLevel(p, a, fm.Config{Objective: r.cfg.Objective}, r.sc) }
	if r.cfg.RefineWorkers >= 1 {
		r.cfg.Stats.track(phaseRefineParallel, build)
	} else {
		r.cfg.Stats.track(phaseRefine, build)
	}
	if err != nil {
		return nil, fmt.Errorf("multilevel: refining level %d: %w", lvl, err)
	}
	parallelRounds(lv, r.cfg, r.rng)
	localizedRounds(lv, r.cfg, lvl, r.rng)
	polish := polishConfig(r.polish, r.cfg, lvl)
	r.cfg.Stats.track(phaseRefine, func() {
		lv.Polish(polish)
		if r.pairwise {
			lv.Pairwise(polish, 2)
		}
	})
	return lv.Assignment(), nil
}

// parallelRounds runs the Config.RefineWorkers synchronous-round stage on the
// level when enabled, tracked under the refine_parallel phase. The
// commit-order salt is drawn from rng with exactly one draw per call whatever
// the worker count, so the RNG stream — and therefore every downstream draw —
// is identical for all RefineWorkers values >= 1. Disabled (< 1), it leaves
// the level unchanged and consumes nothing.
func parallelRounds(lv *fm.Level, cfg Config, rng *rand.Rand) {
	if cfg.RefineWorkers < 1 {
		return
	}
	salt := rng.Uint64()
	cfg.Stats.track(phaseRefineParallel, func() { lv.Rounds(cfg.RefineWorkers, salt) })
}

// localizedRounds runs the Config.LocalizedFMWorkers localized parallel FM
// stage on the level when enabled, tracked under the refine_localized phase.
// The stage only runs at the finest level (lvl 0) — that is where the
// full-budget serial polish used to dominate every solve; coarse levels are
// cheap enough for the round stage plus a one-pass polish. The salt is drawn
// from rng with exactly one draw per enabled finest level whatever the
// worker count, so the RNG stream stays identical for all LocalizedFMWorkers
// values >= 1. Disabled (< 1) or above the finest level, it leaves the level
// unchanged and consumes nothing.
func localizedRounds(lv *fm.Level, cfg Config, lvl int, rng *rand.Rand) {
	if cfg.LocalizedFMWorkers < 1 || lvl != 0 {
		return
	}
	salt := rng.Uint64()
	cfg.Stats.track(phaseRefineLocalized, func() { lv.Localized(cfg.LocalizedFMWorkers, salt) })
}

// polishConfig caps the serial FM polish to one pass at coarse levels while
// the parallel round stage is on — the rounds replace the polish's repeated
// passes there, and the remaining pass contributes the hill-climbing the
// greedy rounds cannot. The finest level (lvl 0) keeps the full configured
// pass budget unless the localized FM stage is on: localized searches carry
// the hill-climbing there, so the serial kernel shrinks to a short one-pass
// tail that sweeps up whatever the bounded searches left behind.
func polishConfig(fmCfg fm.Config, cfg Config, lvl int) fm.Config {
	if cfg.RefineWorkers >= 1 && lvl > 0 {
		fmCfg.MaxPasses = 1
	}
	if cfg.LocalizedFMWorkers >= 1 && lvl == 0 {
		fmCfg.MaxPasses = 1
	}
	return fmCfg
}

// followerCutoff resolves the pass cutoff for follower descents:
// followerPassFraction, unless the run-wide MaxPassFraction is already an
// even stricter cutoff.
func followerCutoff(cfg Config) float64 {
	if cfg.MaxPassFraction > 0 && cfg.MaxPassFraction < followerPassFraction {
		return cfg.MaxPassFraction
	}
	return followerPassFraction
}

// PhaseStats accumulates wall time per engine phase. Attach one to
// Config.Stats to profile a run. Every descent tracks its coarsening,
// its coarsest-level initial partitioning (for direct k-way descents that
// includes the recursive-bisection seeds, whose own nested phases are not
// counted again) and, per level, each refinement stage — the serial polish
// and the k-way pairwise sweeps both count under refine; a level's state is
// built under its first stage's counter — so on a serial run TotalNS
// accounts for nearly all of the wall time. Counters are added
// to atomically, so one PhaseStats may be shared by concurrent descents.
type PhaseStats struct {
	CoarsenNS int64 `json:"coarsen_ns"`
	InitNS    int64 `json:"init_ns"`
	RefineNS  int64 `json:"refine_ns"`
	// RefineParallelNS is the wall time of the synchronous-round parallel
	// refinement stage (Config.RefineWorkers); RefineNS keeps counting only
	// the serial FM polish, so the two split the refinement phase.
	RefineParallelNS int64 `json:"refine_parallel_ns"`
	// RefineLocalizedNS is the wall time of the localized parallel FM stage
	// (Config.LocalizedFMWorkers) at the finest level; RefineNS keeps
	// counting only the serial FM tail, so the three refine counters split
	// the refinement phase.
	RefineLocalizedNS int64 `json:"refine_localized_ns"`
	// Kernel accumulates the FM kernel's net-state-aware work counters (nets
	// skipped, pin scans avoided, bucket updates saved) across every FM run a
	// descent performs, bar the k-way recursive-bisection seeds, which run
	// untracked; like the phase counters it is updated atomically.
	Kernel fm.KernelStats `json:"refine_kernel"`
}

// TotalNS returns the summed wall time across phases.
func (st *PhaseStats) TotalNS() int64 {
	return st.CoarsenNS + st.InitNS + st.RefineNS + st.RefineParallelNS + st.RefineLocalizedNS
}

// kernelStats returns the kernel-counter sink of st, or nil when stats are
// not being collected.
func kernelStats(st *PhaseStats) *fm.KernelStats {
	if st == nil {
		return nil
	}
	return &st.Kernel
}

const (
	phaseCoarsen = iota
	phaseInit
	phaseRefine
	phaseRefineParallel
	phaseRefineLocalized
)

var phaseLabels = [...]string{"coarsen", "init", "refine", "refine_parallel", "refine_localized"}

// track runs fn under a pprof goroutine label for the phase (so CPU/heap
// profiles split by phase) and, when st is non-nil, accrues wall time into
// the phase counters. st may be nil.
func (st *PhaseStats) track(phase int, fn func()) {
	if st == nil {
		pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[phase]), func(context.Context) { fn() })
		return
	}
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[phase]), func(context.Context) { fn() })
	dt := time.Since(t0).Nanoseconds()
	switch phase {
	case phaseCoarsen:
		atomic.AddInt64(&st.CoarsenNS, dt)
	case phaseInit:
		atomic.AddInt64(&st.InitNS, dt)
	case phaseRefine:
		atomic.AddInt64(&st.RefineNS, dt)
	case phaseRefineParallel:
		atomic.AddInt64(&st.RefineParallelNS, dt)
	case phaseRefineLocalized:
		atomic.AddInt64(&st.RefineLocalizedNS, dt)
	}
}
