package multilevel

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/fm"
	"repro/internal/partition"
)

// Hierarchy is the product of one coarsening descent: the stack of
// progressively coarser problems plus the cluster maps between them. It is
// immutable once built, so many refinement-only descents — serial or
// concurrent — can share it; that is what SharedMultistart exploits to
// amortise coarsening (and its contraction cost) over many starts.
//
// A Hierarchy is only sound to share between *starts of the same problem and
// config*. It must not be reused for V-cycling: V-cycles re-coarsen
// restricted to the current solution, so their stack depends on the very
// assignment being refined.
type Hierarchy struct {
	levels []level
	cfg    Config // effective config the hierarchy was built with
}

// Root returns the original (finest) problem.
func (h *Hierarchy) Root() *partition.Problem { return h.levels[0].problem }

// Levels returns the number of coarsening levels (0 = the hierarchy is flat).
func (h *Hierarchy) Levels() int { return len(h.levels) - 1 }

// Coarsest returns the coarsest problem of the stack.
func (h *Hierarchy) Coarsest() *partition.Problem { return h.levels[len(h.levels)-1].problem }

// BuildHierarchy runs the coarsening phase of Partition once and returns the
// resulting hierarchy. Partition(p, cfg, rng) is exactly
// BuildHierarchy(p, cfg, rng) followed by Descend(rng) on the same rng.
func BuildHierarchy(p *partition.Problem, cfg Config, rng *rand.Rand) (*Hierarchy, error) {
	if p.K != 2 {
		return nil, fmt.Errorf("multilevel: BuildHierarchy requires k=2, got k=%d", p.K)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return buildLevels(p, cfg.effective(), bipartitionMaxCluster(p), rng), nil
}

// Descend runs one full-refinement start over the hierarchy: initial
// partitioning at the coarsest feasible level, then FM refinement at every
// level on the way up. Each call consumes rng exactly as the corresponding
// phase of Partition does.
func (h *Hierarchy) Descend(rng *rand.Rand) (*Result, error) { return h.descend(rng, false) }

// bipartitionMaxCluster caps cluster growth well below the part capacity so
// the coarsest level retains enough granularity near the balance boundary.
func bipartitionMaxCluster(p *partition.Problem) int64 {
	maxCluster := p.Balance.Max[0][0] / 20
	if maxCluster < 1 {
		maxCluster = 1
	}
	return maxCluster
}

// buildLevels runs the coarsening loop on an already-validated problem and
// effective config.
func buildLevels(p *partition.Problem, cfg Config, maxCluster int64, rng *rand.Rand) *Hierarchy {
	h := &Hierarchy{cfg: cfg}
	cfg.Stats.track(phaseCoarsen, func() {
		levels := []level{{problem: p}}
		curr := p
		for len(levels) < cfg.MaxLevels {
			if curr.MovableCount() <= cfg.CoarsestSize {
				break
			}
			coarse, clusterOf, ok := coarsenLevel(cfg.Scheme, curr, nil, maxCluster, cfg.ClusteringRatio, cfg.HugeNetThreshold, cfg.CoarsenWorkers, rng)
			if !ok {
				break
			}
			levels[len(levels)-1].clusterOf = clusterOf
			levels = append(levels, level{problem: coarse})
			curr = coarse
		}
		h.levels = levels
	})
	return h
}

// descend runs one refinement start. Owner descents (follower=false) refine
// with the full configured FM discipline and replay Partition's phases
// bit-identically; follower descents — extra SharedMultistart starts
// resampling a hierarchy another start owns — apply cfg.FollowerPassFraction
// as a pass cutoff during uncoarsening refinement, trading a sliver of
// per-start quality for a large reduction in per-start cost (the coarsest
// initial partitioning, where start diversity comes from, stays at full
// strength). One FM scratch is leased for the whole descent, so neither the
// initial tries nor the per-level refinements pay the kernel's allocation
// cost.
func (h *Hierarchy) descend(rng *rand.Rand, follower bool) (*Result, error) {
	sc := fm.GetScratch()
	defer fm.PutScratch(sc)
	return h.descendWith(rng, follower, sc)
}

// descendWith is descend running on a caller-provided FM scratch, for
// multistart drivers that pin one scratch per worker across many descents.
// Scratch contents never influence results, so pinning preserves the
// determinism contract.
func (h *Hierarchy) descendWith(rng *rand.Rand, follower bool, sc *fm.Scratch) (*Result, error) {
	cfg := h.cfg
	fmCfg := fm.Config{Policy: cfg.Policy, Objective: cfg.Objective, MaxPassFraction: cfg.MaxPassFraction, MaxPasses: cfg.RefineMaxPasses, Stats: kernelStats(cfg.Stats)}
	if follower {
		fmCfg.MaxPassFraction = followerPassFraction(cfg)
	}
	initCfg := fm.Config{Policy: cfg.Policy, Objective: cfg.Objective, MaxPassFraction: cfg.MaxPassFraction, Stats: kernelStats(cfg.Stats)}

	// Initial partitioning at the deepest level that admits a feasible
	// start; heavy clusters can make the very coarsest level infeasible, in
	// which case we back off toward finer levels.
	start := len(h.levels) - 1
	var a partition.Assignment
	cfg.Stats.track(phaseInit, func() {
		for ; start >= 0; start-- {
			lp := h.levels[start].problem
			var best *fm.Result
			for try := 0; try < cfg.InitialTries; try++ {
				res, err := fm.RunFromRandomWith(lp, initCfg, rng, sc)
				if err != nil {
					break
				}
				// At k = 2 every objective coincides with the cut, so this
				// selection is objective-agnostic (Score == Cut here).
				if best == nil || res.Score < best.Score {
					best = res
				}
			}
			if best != nil {
				a = best.Assignment
				break
			}
		}
	})
	if a == nil {
		return nil, fmt.Errorf("multilevel: no feasible initial solution at any level (instance overconstrained)")
	}

	// Uncoarsen: the optional parallel round stage, then (at the finest
	// level) the localized FM stage, then serial FM polish, per level.
	for lvl := start - 1; lvl >= 0; lvl-- {
		a = project(a, h.levels[lvl].clusterOf)
		var err error
		if a, err = parallelRounds(h.levels[lvl].problem, a, cfg, rng, sc); err != nil {
			return nil, fmt.Errorf("multilevel: refining level %d: %w", lvl, err)
		}
		if a, err = localizedRounds(h.levels[lvl].problem, a, cfg, lvl, rng, sc); err != nil {
			return nil, fmt.Errorf("multilevel: refining level %d: %w", lvl, err)
		}
		lvlCfg := polishConfig(fmCfg, cfg, lvl)
		cfg.Stats.track(phaseRefine, func() {
			var res *fm.Result
			if res, err = fm.BipartitionWith(h.levels[lvl].problem, a, lvlCfg, sc); err == nil {
				a = res.Assignment
			}
		})
		if err != nil {
			return nil, fmt.Errorf("multilevel: refining level %d: %w", lvl, err)
		}
	}
	return newResult(h.Root(), a, cfg, len(h.levels)-1), nil
}

// parallelRounds runs the Config.RefineWorkers synchronous-round stage on one
// level's problem when enabled, tracked under the refine_parallel phase. The
// commit-order salt is drawn from rng with exactly one draw per call whatever
// the worker count, so the RNG stream — and therefore every downstream draw —
// is identical for all RefineWorkers values >= 1. Disabled (< 1), it returns
// a unchanged and consumes nothing.
func parallelRounds(p *partition.Problem, a partition.Assignment, cfg Config, rng *rand.Rand, sc *fm.Scratch) (partition.Assignment, error) {
	if cfg.RefineWorkers < 1 {
		return a, nil
	}
	salt := rng.Uint64()
	var res *fm.ParallelResult
	var err error
	cfg.Stats.track(phaseRefineParallel, func() {
		res, err = fm.ParallelRefineWith(p, a, fm.Config{Objective: cfg.Objective, Sideways: cfg.RefineSideways}, cfg.RefineWorkers, salt, sc)
	})
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
}

// localizedRounds runs the Config.LocalizedFMWorkers localized parallel FM
// stage when enabled, tracked under the refine_localized phase. The stage
// only runs at the finest level (lvl 0) — that is where the full-budget
// serial polish used to dominate every solve (BENCH_prefine.json); coarse
// levels are cheap enough for the round stage plus a one-pass polish. The
// salt is drawn from rng with exactly one draw per enabled finest level
// whatever the worker count, so the RNG stream stays identical for all
// LocalizedFMWorkers values >= 1. Disabled (< 1) or above the finest level,
// it returns a unchanged and consumes nothing.
func localizedRounds(p *partition.Problem, a partition.Assignment, cfg Config, lvl int, rng *rand.Rand, sc *fm.Scratch) (partition.Assignment, error) {
	if cfg.LocalizedFMWorkers < 1 || lvl != 0 {
		return a, nil
	}
	salt := rng.Uint64()
	var res *fm.LocalizedResult
	var err error
	cfg.Stats.track(phaseRefineLocalized, func() {
		res, err = fm.LocalizedRefineWith(p, a, fm.Config{Objective: cfg.Objective}, cfg.LocalizedFMWorkers, salt, sc)
	})
	if err != nil {
		return nil, err
	}
	return res.Assignment, nil
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

// followerPassFraction resolves the pass cutoff for follower descents: the
// configured FollowerPassFraction, unless the run-wide MaxPassFraction is
// already an even stricter cutoff.
func followerPassFraction(cfg Config) float64 {
	f := cfg.FollowerPassFraction
	if cfg.MaxPassFraction > 0 && cfg.MaxPassFraction < 1 && cfg.MaxPassFraction < f {
		f = cfg.MaxPassFraction
	}
	return f
}

// PhaseStats accumulates wall time and heap allocation counts per engine
// phase. Attach one to Config.Stats to profile a run; the bench harness
// threads these into BENCH_shared.json. Counters are added to atomically, so
// one PhaseStats may be shared by concurrent descents; the allocation
// numbers read the process-wide heap counter and are only attributable to a
// phase in serial runs.
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
	RefineLocalizedNS     int64 `json:"refine_localized_ns"`
	CoarsenAllocs         int64 `json:"coarsen_allocs"`
	InitAllocs            int64 `json:"init_allocs"`
	RefineAllocs          int64 `json:"refine_allocs"`
	RefineParallelAllocs  int64 `json:"refine_parallel_allocs"`
	RefineLocalizedAllocs int64 `json:"refine_localized_allocs"`
	// Kernel accumulates the FM kernel's net-state-aware work counters (nets
	// skipped, pin scans avoided, bucket updates saved) across every FM run a
	// descent performs; like the phase counters it is updated atomically.
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
// profiles split by phase) and, when st is non-nil, accrues wall time and
// heap object allocations into the phase counters. st may be nil.
func (st *PhaseStats) track(phase int, fn func()) {
	if st == nil {
		pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[phase]), func(context.Context) { fn() })
		return
	}
	a0 := heapAllocObjects()
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", phaseLabels[phase]), func(context.Context) { fn() })
	dt := time.Since(t0).Nanoseconds()
	da := int64(heapAllocObjects() - a0)
	switch phase {
	case phaseCoarsen:
		atomic.AddInt64(&st.CoarsenNS, dt)
		atomic.AddInt64(&st.CoarsenAllocs, da)
	case phaseInit:
		atomic.AddInt64(&st.InitNS, dt)
		atomic.AddInt64(&st.InitAllocs, da)
	case phaseRefine:
		atomic.AddInt64(&st.RefineNS, dt)
		atomic.AddInt64(&st.RefineAllocs, da)
	case phaseRefineParallel:
		atomic.AddInt64(&st.RefineParallelNS, dt)
		atomic.AddInt64(&st.RefineParallelAllocs, da)
	case phaseRefineLocalized:
		atomic.AddInt64(&st.RefineLocalizedNS, dt)
		atomic.AddInt64(&st.RefineLocalizedAllocs, da)
	}
}

// heapAllocObjects returns the cumulative count of heap objects allocated by
// the process. It reads runtime.MemStats, which flushes every P's allocation
// cache first: runtime/metrics' /gc/heap/allocs:objects only counts a small
// object once its cache span is refilled or flushed, so a phase that
// allocates a few small objects could read zero there.
func heapAllocObjects() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
