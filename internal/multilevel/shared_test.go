package multilevel_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// TestSharedMultistartGoldenEquivalence is the golden guarantee of the shared
// path: with one private hierarchy per start (hierarchies == starts) every
// start is an owner — hierarchy build and full descent on the same per-start
// RNG — so shared Solve must reproduce the unshared run bit for bit on the
// IBM01S-03S presets, in the free and fixed-terminals regimes.
func TestSharedMultistartGoldenEquivalence(t *testing.T) {
	for _, name := range []string{"IBM01S", "IBM02S", "IBM03S"} {
		for _, fixedFrac := range []float64{0, 0.2} {
			p := presetProblem(t, name, 0.08, fixedFrac)
			const starts = 4
			want, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: starts}, rand.New(rand.NewPCG(11, 13)))
			if err != nil {
				t.Fatal(err)
			}
			got, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: starts, Hierarchies: starts}, rand.New(rand.NewPCG(11, 13)))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, name, want, got)
		}
	}
}

// TestBuildHierarchyDescendMatchesPartition checks the refactoring seam
// directly: BuildHierarchy followed by Descend on the same rng is exactly
// Partition.
func TestBuildHierarchyDescendMatchesPartition(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.08, 0.1)
	want, err := multilevel.Partition(p, multilevel.Config{}, rand.New(rand.NewPCG(3, 7)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 7))
	h := multilevel.BuildHierarchy(p, multilevel.Config{}, rng)
	got, err := h.Descend(rng)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "build+descend", want, got)
	if h.Levels() != want.Levels {
		t.Errorf("hierarchy levels = %d, want %d", h.Levels(), want.Levels)
	}
	if h.Root() != p {
		t.Error("hierarchy root is not the input problem")
	}
	if h.Coarsest().MovableCount() > 120 {
		t.Errorf("coarsest level has %d movable vertices, want <= 120", h.Coarsest().MovableCount())
	}
}

// TestParallelSharedMultistartWorkers is the determinism contract for the
// shared driver: with followers in play (hierarchies < starts),
// shared Solve must return a bit-identical Result for worker counts 1, 2
// and 4, all equal to the serial (Workers 1) run. Run under
// -race in CI, which also exercises concurrent follower descents sharing one
// immutable hierarchy.
func TestParallelSharedMultistartWorkers(t *testing.T) {
	for _, fixedFrac := range []float64{0, 0.2} {
		p := presetProblem(t, "IBM01S", 0.08, fixedFrac)
		const starts, hierarchies = 6, 2
		want, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: starts, Hierarchies: hierarchies}, rand.New(rand.NewPCG(21, 22)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			cfg := multilevel.Config{Workers: workers}
			got, err := solve(p, cfg, multilevel.Spec{Starts: starts, Hierarchies: hierarchies}, rand.New(rand.NewPCG(21, 22)))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "workers=2", want, got)
		}
	}
}

// TestSharedMultistartFollowerQuality bounds the price of follower descents:
// best-of-8 with 2 hierarchies must stay within a small factor of the
// unshared best-of-8 cut on a mid-size instance.
func TestSharedMultistartFollowerQuality(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.08, 0)
	unshared, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 8}, rand.New(rand.NewPCG(31, 32)))
	if err != nil {
		t.Fatal(err)
	}
	shared, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 8, Hierarchies: 2}, rand.New(rand.NewPCG(31, 32)))
	if err != nil {
		t.Fatal(err)
	}
	if float64(shared.Cut) > 1.25*float64(unshared.Cut)+2 {
		t.Errorf("shared best-of-8 cut %d too far above unshared %d", shared.Cut, unshared.Cut)
	}
}

// TestSharedMultistartWork is the shared path's work bar, counted in FM pin
// traversals rather than wall time so it holds on any host: 8 starts over 2
// shared hierarchies (6 followers under the pass cutoff) must do at most
// 1/1.5 of the unshared 8-start run's FM gain-update pin work
// (PinsScanned + PinScansAvoided), with a mean best cut within 2% of it, over
// 5 seeds of IBM01S at scale 0.2.
func TestSharedMultistartWork(t *testing.T) {
	if testing.Short() {
		t.Skip("work comparison needs the full-scale instance")
	}
	p := presetProblem(t, "IBM01S", 0.2, 0)
	const seeds = 5
	var unsharedStats, sharedStats multilevel.PhaseStats
	var unsharedCut, sharedCut int64
	for seed := uint64(1); seed <= seeds; seed++ {
		u, err := solve(p, multilevel.Config{Workers: 1, Stats: &unsharedStats}, multilevel.Spec{Starts: 8}, rand.New(rand.NewPCG(seed, 17)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := solve(p, multilevel.Config{Workers: 1, Stats: &sharedStats}, multilevel.Spec{Starts: 8, Hierarchies: 2}, rand.New(rand.NewPCG(seed, 17)))
		if err != nil {
			t.Fatal(err)
		}
		unsharedCut += u.Cut
		sharedCut += s.Cut
	}
	pinWork := func(st *multilevel.PhaseStats) int64 { return st.Kernel.PinsScanned + st.Kernel.PinScansAvoided }
	ratio := float64(pinWork(&unsharedStats)) / float64(pinWork(&sharedStats))
	t.Logf("FM pin work unshared/shared %.2fx, mean best cut shared %.1f vs unshared %.1f",
		ratio, float64(sharedCut)/seeds, float64(unsharedCut)/seeds)
	if ratio < 1.5 {
		t.Errorf("unshared FM pin work only %.2fx the shared run's, want >= 1.5x", ratio)
	}
	if float64(sharedCut) > 1.02*float64(unsharedCut) {
		t.Errorf("shared mean best cut %.1f more than 2%% above unshared %.1f",
			float64(sharedCut)/seeds, float64(unsharedCut)/seeds)
	}
}

// TestPhaseStats checks Config.Stats accounting: all three phases accrue
// time, and the totals are consistent. On the direct k-way path the phases
// must also account for nearly all of a serial solve's wall time: its
// coarsening, its recursive-bisection seeds (under init, counted once) and
// its per-level polish and pairwise sweeps (under refine) are all tracked.
func TestPhaseStats(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.08, 0)
	var st multilevel.PhaseStats
	cfg := multilevel.Config{Workers: 1, Stats: &st}
	if _, err := solve(p, cfg, multilevel.Spec{Starts: 2}, rand.New(rand.NewPCG(5, 5))); err != nil {
		t.Fatal(err)
	}
	if st.CoarsenNS <= 0 || st.InitNS <= 0 || st.RefineNS <= 0 {
		t.Errorf("phase times not all positive: %+v", st)
	}
	if st.TotalNS() != st.CoarsenNS+st.InitNS+st.RefineNS {
		t.Errorf("TotalNS inconsistent")
	}

	p4 := partition.NewFree(presetProblem(t, "IBM01S", 0.2, 0).H, 4, 0.05)
	partition.ApplyFixFraction(p4, 0.2, 5)
	var kst multilevel.PhaseStats
	t0 := time.Now()
	if _, err := multilevel.PartitionKWay(p4, multilevel.Config{Stats: &kst}, rand.New(rand.NewPCG(6, 6))); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0).Nanoseconds()
	if kst.CoarsenNS <= 0 || kst.InitNS <= 0 || kst.RefineNS <= 0 {
		t.Errorf("k-way phase times not all positive: %+v", kst)
	}
	if total := kst.TotalNS(); total < wall*8/10 || total > wall {
		t.Errorf("k-way phases account for %d of %d ns wall time, want 80-100%%", total, wall)
	}
}
