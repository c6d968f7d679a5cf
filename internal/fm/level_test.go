package fm_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/partition"
)

// parallelRefine runs the round stage on a fresh level of initial built on
// sc, and returns the stage's counters with the refined assignment.
func parallelRefine(p *partition.Problem, initial partition.Assignment, cfg fm.Config, workers int, salt uint64, sc *fm.Scratch) (*fm.ParallelResult, partition.Assignment, error) {
	lv, err := fm.NewLevel(p, initial, cfg, sc)
	if err != nil {
		return nil, nil, err
	}
	res := lv.Rounds(workers, salt)
	return &res, lv.Assignment(), nil
}

// refineWith is fm.Refine on a caller-provided scratch: NewLevel plus Polish.
func refineWith(p *partition.Problem, initial partition.Assignment, cfg fm.Config, sc *fm.Scratch) (*fm.Result, error) {
	lv, err := fm.NewLevel(p, initial, cfg, sc)
	if err != nil {
		return nil, err
	}
	passes := lv.Polish(cfg)
	return &fm.Result{Assignment: lv.Assignment(), Cut: lv.Cut(), KMinus1: lv.KMinus1(), Score: lv.Score(), Objective: cfg.Objective, Passes: passes}, nil
}

// localizedRefine is parallelRefine for the localized FM stage.
func localizedRefine(p *partition.Problem, initial partition.Assignment, cfg fm.Config, workers int, salt uint64, sc *fm.Scratch) (*fm.LocalizedResult, error) {
	lv, err := fm.NewLevel(p, initial, cfg, sc)
	if err != nil {
		return nil, err
	}
	res := lv.Localized(workers, salt)
	res.Assignment = lv.Assignment()
	return &res, nil
}

// TestPairwiseMatchesReference differentially tests the pairwise sweeps on
// the level state against the frozen driver (reference_test.go), which
// builds a fresh restricted Problem per pair and runs the frozen kernel on
// it: deriving the pair's movability and lock seeds from Φ, reading the
// active pairs off Φ and the sweep objective off the running connectivity
// is bookkeeping only, so every trial must return the identical assignment,
// with a running connectivity that matches a from-scratch recount.
func TestPairwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9a1e, 7))
	trials := 0
	for trials < 40 {
		p, initial, ok := locDiffProblem(rng)
		if !ok || p.K < 3 {
			continue
		}
		trials++
		cfg := fm.Config{Policy: fm.Policy(trials % 2), MaxPasses: 1 + trials%3}
		if trials%4 >= 2 {
			cfg.Objective = fm.ObjectiveKM1
		}
		sweeps := 1 + trials%2
		want, err := fm.PairwiseReference(p, initial, cfg, sweeps)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trials, err)
		}
		lv, err := fm.NewLevel(p, initial, cfg, &fm.Scratch{})
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		lv.Pairwise(cfg, sweeps)
		got := lv.Assignment()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d, nv=%d, sweeps=%d): assignment diverges from the reference",
				trials, p.K, p.H.NumVertices(), sweeps)
		}
		if km1 := partition.KMinus1(p.H, got); lv.KMinus1() != km1 {
			t.Fatalf("trial %d: running km1 %d, recount %d", trials, lv.KMinus1(), km1)
		}
	}
}

// TestLevelChainMatchesFreshStages runs the multilevel refinement chain —
// rounds, localized FM, the serial polish, pairwise sweeps, and one more
// polish — on one level state, and again with every stage on a freshly
// built state fed the previous stage's assignment. Handing Φ, the weights, the gain table and
// the running objective from stage to stage must change nothing: after
// every stage the assignment and the stage's counters must be identical,
// and the running objective must match a from-scratch recount, for every
// worker count.
func TestLevelChainMatchesFreshStages(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xc4a1, 3))
	trials := 0
	for trials < 24 {
		p, initial, ok := locDiffProblem(rng)
		if !ok {
			continue
		}
		trials++
		salt1, salt2 := rng.Uint64(), rng.Uint64()
		cfg := fm.Config{Policy: fm.Policy(trials % 2), MaxPasses: 1 + trials%2}
		if trials%4 >= 2 {
			cfg.Objective = fm.ObjectiveKM1
		}
		for _, workers := range []int{1, 2, 4} {
			sc := &fm.Scratch{}
			// Fresh: one state per stage.
			r1, r1A, err := parallelRefine(p, initial, cfg, workers, salt1, sc)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := localizedRefine(p, r1A, cfg, workers, salt2, sc)
			if err != nil {
				t.Fatal(err)
			}
			r3, err := refineWith(p, r2.Assignment, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := fm.NewLevel(p, r3.Assignment, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Pairwise(cfg, 2)
			r4 := fresh.Assignment()
			r5, err := refineWith(p, r4, cfg, sc)
			if err != nil {
				t.Fatal(err)
			}

			// Chained: one state for the whole level.
			lv, err := fm.NewLevel(p, initial, cfg, &fm.Scratch{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string, want partition.Assignment) {
				t.Helper()
				got := lv.Assignment()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (k=%d, nv=%d) workers=%d: chained %s diverges from the fresh stage",
						trials, p.K, p.H.NumVertices(), workers, stage)
				}
				if km1 := partition.KMinus1(p.H, got); lv.KMinus1() != km1 {
					t.Fatalf("trial %d workers=%d: after %s running km1 %d, recount %d", trials, workers, stage, lv.KMinus1(), km1)
				}
				if cut := partition.Cut(p.H, got); lv.Cut() != cut {
					t.Fatalf("trial %d workers=%d: after %s cut %d, recount %d", trials, workers, stage, lv.Cut(), cut)
				}
			}
			c1 := lv.Rounds(workers, salt1)
			check("rounds", r1A)
			if c1.Rounds != r1.Rounds || c1.Moves != r1.Moves || c1.Gain != r1.Gain {
				t.Fatalf("trial %d workers=%d: chained rounds %+v, fresh %+v", trials, workers, c1, *r1)
			}
			c2 := lv.Localized(workers, salt2)
			check("localized", r2.Assignment)
			if c2.Rounds != r2.Rounds || c2.Searches != r2.Searches || c2.Committed != r2.Committed ||
				c2.Moves != r2.Moves || c2.Gain != r2.Gain {
				t.Fatalf("trial %d workers=%d: chained localized %+v, fresh %+v", trials, workers, c2, *r2)
			}
			c3 := lv.Polish(cfg)
			check("polish", r3.Assignment)
			if !reflect.DeepEqual(c3, r3.Passes) {
				t.Fatalf("trial %d workers=%d: chained polish passes %+v, fresh %+v", trials, workers, c3, r3.Passes)
			}
			if lv.Score() != r3.Score {
				t.Fatalf("trial %d workers=%d: chained Score %d, fresh %d", trials, workers, lv.Score(), r3.Score)
			}
			lv.Pairwise(cfg, 2)
			check("pairwise", r4)
			// The sweeps restore the level's movability: a polish after
			// them runs exactly as on a fresh state.
			c5 := lv.Polish(cfg)
			check("polish after pairwise", r5.Assignment)
			if !reflect.DeepEqual(c5, r5.Passes) {
				t.Fatalf("trial %d workers=%d: polish after pairwise passes %+v, fresh %+v", trials, workers, c5, r5.Passes)
			}
		}
	}
}
