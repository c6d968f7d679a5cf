package multilevel_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/fm"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// TestLocalizedFMGoldenEquivalence is the determinism contract of the
// localized FM stage at the driver level: for workers in {2, 4, 8} every
// driver — 2-way Partition, direct k-way and shared multistart —
// must return a result bit-identical to LocalizedFMWorkers=1 (the searches
// serialised onto the calling goroutine), on free and fixed-terminals
// instances. Run under -race in CI, which also exercises the concurrent
// boundary scans and the shared search queue on top of the round stage.
func TestLocalizedFMGoldenEquivalence(t *testing.T) {
	p2 := presetProblem(t, "IBM01S", 0.08, 0.2)
	p2free := presetProblem(t, "IBM02S", 0.06, 0)
	p4 := partition.NewFree(p2free.H, 4, 0.1)

	type runs struct {
		part, kway, shared *multilevel.Result
	}
	run := func(workers int) runs {
		var r runs
		var err error
		cfg := multilevel.Config{RefineWorkers: 2, LocalizedFMWorkers: workers}
		if r.part, err = multilevel.Partition(p2, cfg, rand.New(rand.NewPCG(3, 4))); err != nil {
			t.Fatalf("workers=%d: Partition: %v", workers, err)
		}
		if r.kway, err = multilevel.PartitionKWay(p4, cfg, rand.New(rand.NewPCG(5, 6))); err != nil {
			t.Fatalf("workers=%d: PartitionKWay: %v", workers, err)
		}
		if r.shared, err = solve(p2, cfg, multilevel.Spec{Starts: 4, Hierarchies: 2}, rand.New(rand.NewPCG(11, 12))); err != nil {
			t.Fatalf("workers=%d: shared Solve: %v", workers, err)
		}
		return r
	}

	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		sameResult(t, "partition", want.part, got.part)
		sameResult(t, "kway", want.kway, got.kway)
		sameResult(t, "shared", want.shared, got.shared)
	}
}

// TestLocalizedFMDifferentialQuality bounds what the localized stage (which
// replaces most of the finest-level serial polish with bounded searches plus
// a one-pass tail) costs against the PR 8 pipeline, per the acceptance bar:
// over 40 trials — 20 per objective, varying seed and fixed fraction — the
// mean cut and mean km1 of LocalizedFMWorkers=1 runs must stay within 2% of
// LocalizedFMWorkers=0 runs of the same instances.
func TestLocalizedFMDifferentialQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("quality differential needs full trials")
	}
	for _, obj := range []fm.Objective{fm.ObjectiveCut, fm.ObjectiveKM1} {
		var baseCut, locCut, baseKM1, locKM1 int64
		trial := 0
		for _, inst := range []struct {
			name      string
			fixedFrac float64
		}{
			{"IBM01S", 0}, {"IBM01S", 0.25}, {"IBM02S", 0}, {"IBM02S", 0.25},
		} {
			p2 := presetProblem(t, inst.name, 0.08, inst.fixedFrac)
			p4 := partition.NewFree(p2.H, 4, 0.1)
			for seed := uint64(0); seed < 10; seed++ {
				trial++
				p := p2
				runKWay := seed%2 == 1
				if runKWay {
					p = p4
				}
				run := func(locWorkers int) *multilevel.Result {
					cfg := multilevel.Config{Objective: obj, RefineWorkers: 1, LocalizedFMWorkers: locWorkers}
					rng := rand.New(rand.NewPCG(seed, 0xbeef))
					var res *multilevel.Result
					var err error
					if runKWay {
						res, err = multilevel.PartitionKWay(p, cfg, rng)
					} else {
						res, err = multilevel.Partition(p, cfg, rng)
					}
					if err != nil {
						t.Fatalf("%s trial %d localized-workers=%d: %v", obj, trial, locWorkers, err)
					}
					return res
				}
				b, l := run(0), run(1)
				baseCut += b.Cut
				locCut += l.Cut
				baseKM1 += b.KMinus1
				locKM1 += l.KMinus1
			}
		}
		if trial < 40 {
			t.Fatalf("only %d trials ran, want >= 40", trial)
		}
		if float64(locCut) > 1.02*float64(baseCut) {
			t.Errorf("objective=%s: mean cut with localized FM %.1f exceeds baseline %.1f by more than 2%%",
				obj, float64(locCut)/float64(trial), float64(baseCut)/float64(trial))
		}
		if float64(locKM1) > 1.02*float64(baseKM1) {
			t.Errorf("objective=%s: mean km1 with localized FM %.1f exceeds baseline %.1f by more than 2%%",
				obj, float64(locKM1)/float64(trial), float64(baseKM1)/float64(trial))
		}
	}
}

// TestLocalizedFMOffIsSeedBehavior pins the compatibility promise of the
// zero value: LocalizedFMWorkers=0 must reproduce the PR 8 pipeline bit for
// bit (no extra RNG draws, no localized engine, full finest-level polish) —
// here cross-checked by negative values, which must behave like 0 rather
// than enable anything.
func TestLocalizedFMOffIsSeedBehavior(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.08, 0.1)
	want, err := multilevel.Partition(p, multilevel.Config{RefineWorkers: 1}, rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := multilevel.Partition(p, multilevel.Config{RefineWorkers: 1, LocalizedFMWorkers: -3}, rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "localized-fm-workers=-3", want, got)
}
