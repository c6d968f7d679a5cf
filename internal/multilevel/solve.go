package multilevel

import (
	"context"
	"fmt"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/par"
	"repro/internal/partition"
)

// Spec selects what Solve runs. The zero value is one 2-way start.
type Spec struct {
	// Starts is the number of independent starts (< 1 means 1). The best
	// result under the config's Objective wins, ties toward the lowest start
	// index. With Patience set it is the cap on starts.
	Starts int
	// KWay runs direct k-way starts instead of 2-way ones
	// (Partition); it is required for k > 2.
	KWay bool
	// Hierarchies, when in [1, Starts), shares coarsening: starts
	// 0..Hierarchies-1 are owners that each build a hierarchy and refine it
	// at full strength, exactly as an unshared start does; every later start
	// i is a follower that resamples hierarchy i % Hierarchies with a fresh
	// coarsest-level initial partitioning and a refinement under a 10% pass
	// cutoff. Coarsening cost is amortised Hierarchies/Starts-fold. Any other value gives every start its own
	// hierarchy, so Hierarchies == Starts reproduces the unshared run.
	Hierarchies int
	// Patience, when >= 1, stops the run once that many consecutive starts
	// fail to improve the best result; Result.Starts reports how many
	// starts were used. This is an operational answer to the paper's
	// question of how much multistart effort an instance deserves: in the
	// fixed-terminals regime the run stops after the minimum patience
	// window, on free instances it keeps paying for improvements.
	Patience int
}

// Solve is the multistart multilevel partitioner: it runs spec.Starts
// independent starts on up to cfg.Workers goroutines (<= 0 meaning
// GOMAXPROCS; 1 is fully serial) and returns the best.
//
// Start i runs on its own RNG, rand.NewPCG(baseSeed, i), where baseSeed is
// the one value drawn from rng up front, so its outcome is a pure function
// of (problem, config, spec, baseSeed, i) and the result is bit-identical
// for every worker count. Starts are dispatched in index order; once ctx is
// done (a nil ctx never is) no new start launches, in-flight starts finish
// and the best of the completed prefix [0, Result.Starts) is returned with
// Result.Truncated set — the answer an uncancelled run over only those
// starts returns. A run cancelled before any start completes returns an
// error. An erroring start fails the run with the lowest-index error.
func Solve(ctx context.Context, p *partition.Problem, cfg Config, spec Spec, rng *rand.Rand) (*Result, error) {
	if p.K != 2 && !spec.KWay {
		return nil, fmt.Errorf("multilevel: 2-way Solve requires k=2, got k=%d (set Spec.KWay or use RecursiveBisect)", p.K)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	baseSeed := rng.Uint64()
	s := newScheduler(ctx, cfg.Workers, spec.Patience, spec.Starts)
	defer s.release()
	owners := spec.Hierarchies
	if owners < 1 || owners > s.requested {
		owners = s.requested
	}
	var hiers []*Hierarchy // kept only while followers need to resample them
	if owners < s.requested {
		hiers = make([]*Hierarchy, owners)
	}
	// Owner start j builds hierarchy j and descends on the same RNG: the
	// exact single-start sequence (Partition, or its direct k-way twin).
	s.run(owners, func(j int, sc *fm.Scratch) (*Result, error) {
		r := startRNG(baseSeed, j)
		h := coarsen(p, cfg, spec.KWay, r)
		if hiers != nil {
			hiers[j] = h
		}
		return h.descendWith(r, false, sc)
	})
	// Followers fan out over the completed, immutable hierarchies.
	s.run(s.requested, func(i int, sc *fm.Scratch) (*Result, error) {
		return hiers[i%owners].descendWith(startRNG(baseSeed, i), true, sc)
	})
	return s.result()
}

// ParallelMultistartKWayCtx is Solve with spec Spec{Starts: starts, KWay:
// true}: direct k-way starts for any k >= 2.
func ParallelMultistartKWayCtx(ctx context.Context, p *partition.Problem, cfg Config, starts int, rng *rand.Rand) (*Result, error) {
	return Solve(ctx, p, cfg, Spec{Starts: starts, KWay: true}, rng)
}

// startRNG derives the RNG for start index i of a run whose base seed is
// baseSeed. Every start gets an independent deterministic stream regardless
// of worker count or execution order.
func startRNG(baseSeed uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(baseSeed, uint64(i)))
}

// scheduler is the one best-of-starts loop behind Solve and
// MultistartOnHierarchies. It pins one FM scratch per worker for the whole
// run (on small instances a per-start pool round-trip was the dominant
// parallel overhead; scratch contents never influence results), dispatches
// starts in index order through par.ForEachWorkerCtx and folds every
// completed start into the best in index order with a strict < on Score,
// so ties break toward the lowest start index whatever the worker count.
//
// With patience set, starts are computed speculatively in batches of
// patience + workers and the serial stopping rule is replayed over them in
// index order: a start counts toward patience only at its index position,
// so the result and its Starts count are those of a one-at-a-time loop, and
// at most patience+workers-1 starts past the stopping point are computed and
// discarded.
type scheduler struct {
	ctx       context.Context
	workers   int
	patience  int
	requested int
	scratches []*fm.Scratch
	best      *Result
	done      int  // starts folded in so far: always the prefix [0, done)
	stale     int  // consecutive starts that did not improve best
	settled   bool // the patience rule stopped the run
	cancelled bool // ctx fired before every requested start was dispatched
	err       error
}

func newScheduler(ctx context.Context, workers, patience, starts int) *scheduler {
	s := &scheduler{ctx: ctx, workers: workers, patience: patience, requested: max(starts, 1)}
	s.scratches = make([]*fm.Scratch, par.EffectiveWorkers(s.requested, workers))
	for w := range s.scratches {
		s.scratches[w] = fm.GetScratch()
	}
	return s
}

// release returns the pinned scratches to the pool.
func (s *scheduler) release() {
	for _, sc := range s.scratches {
		fm.PutScratch(sc)
	}
}

// run computes starts [s.done, hi) with start and folds them in, unless an
// earlier call already failed, settled or was cancelled.
func (s *scheduler) run(hi int, start func(i int, sc *fm.Scratch) (*Result, error)) {
	for s.done < hi && s.err == nil && !s.settled && !s.cancelled {
		lo, n := s.done, hi-s.done
		if s.patience > 0 {
			n = min(n, s.patience+par.Workers(s.workers))
		}
		results := make([]*Result, n)
		errs := make([]error, n)
		completed := par.ForEachWorkerCtx(s.ctx, n, s.workers, func(w, i int) {
			results[i], errs[i] = start(lo+i, s.scratches[w])
		})
		s.cancelled = completed < n
		for i := 0; i < completed && !s.settled; i++ {
			if errs[i] != nil {
				s.err = errs[i]
				return
			}
			s.done++
			if s.best == nil || results[i].Score < s.best.Score {
				s.best, s.stale = results[i], 0
			} else if s.patience > 0 {
				s.stale++
				s.settled = s.stale >= s.patience
			}
		}
	}
}

// result returns the best folded-in start, with Starts and Truncated set.
func (s *scheduler) result() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.best == nil {
		if s.ctx != nil && s.ctx.Err() != nil {
			return nil, fmt.Errorf("multilevel: cancelled before any start completed: %w", s.ctx.Err())
		}
		return nil, fmt.Errorf("multilevel: no starts completed")
	}
	s.best.Starts = s.done
	s.best.Truncated = s.cancelled && !s.settled
	return s.best, nil
}
