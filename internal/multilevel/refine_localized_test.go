package multilevel_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// TestLocalizedFMGoldenEquivalence is the determinism contract of the
// localized FM stage at the driver level: for workers in {0, 2, 4, 8} every
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
	for _, workers := range []int{0, 2, 4, 8} {
		got := run(workers)
		sameResult(t, "partition", want.part, got.part)
		sameResult(t, "kway", want.kway, got.kway)
		sameResult(t, "shared", want.shared, got.shared)
	}
}
