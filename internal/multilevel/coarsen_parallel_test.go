package multilevel_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// TestCoarsenWorkersGoldenEquivalence is the determinism contract of
// intra-descent parallel coarsening: for workers in {1, 2, 4, 8} both the
// hierarchy (level count, coarsest fingerprint) and the full partitioning
// result (cut + assignment) must be bit-identical to the serial path
// (CoarsenWorkers = 0), on free and fixed-terminals instances. Run under
// -race in CI, which also exercises the concurrent matching passes.
func TestCoarsenWorkersGoldenEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fixedFrac float64
	}{
		{"IBM01S", 0}, {"IBM01S", 0.2}, {"IBM02S", 0},
	} {
		p := presetProblem(t, tc.name, 0.08, tc.fixedFrac)
		serialRNG := rand.New(rand.NewPCG(17, 23))
		wantH := multilevel.BuildHierarchy(p, multilevel.Config{}, serialRNG)
		want, err := wantH.Descend(serialRNG)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := multilevel.Config{CoarsenWorkers: workers}
			rng := rand.New(rand.NewPCG(17, 23))
			gotH := multilevel.BuildHierarchy(p, cfg, rng)
			if gotH.Levels() != wantH.Levels() {
				t.Errorf("%s fixed=%.1f workers=%d: levels = %d, serial %d",
					tc.name, tc.fixedFrac, workers, gotH.Levels(), wantH.Levels())
			}
			if gf, wf := gotH.Coarsest().Fingerprint(), wantH.Coarsest().Fingerprint(); gf != wf {
				t.Errorf("%s fixed=%.1f workers=%d: coarsest fingerprint %x, serial %x",
					tc.name, tc.fixedFrac, workers, gf, wf)
			}
			got, err := gotH.Descend(rng)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, tc.name, want, got)
		}
	}
}

// TestCoarsenWorkersKWay extends the golden guarantee to direct k-way
// descents, whose clusters are capped by the tightest part: they must also
// be worker-count invariant.
func TestCoarsenWorkersKWay(t *testing.T) {
	p4 := partition.NewFree(presetProblem(t, "IBM02S", 0.06, 0).H, 4, 0.1)
	wantK, err := multilevel.PartitionKWay(p4, multilevel.Config{}, rand.New(rand.NewPCG(9, 10)))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 8} {
		cfg := multilevel.Config{CoarsenWorkers: workers}
		gotK, err := multilevel.PartitionKWay(p4, cfg, rand.New(rand.NewPCG(9, 10)))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "kway", wantK, gotK)
	}
}

// TestCoarsenGolden pins every level of two hierarchies to recorded
// fingerprints, at every coarsen worker count: a 2-way descent of IBM01S
// with 20% fixed vertices and a direct k = 4 descent of IBM02S. Unlike the
// worker-equivalence tests above, it catches a change that moves every
// worker count alike.
func TestCoarsenGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		kway bool
		want []uint64
	}{
		{"IBM01S@0.08 fixed=0.2", false, []uint64{
			0xfd0b4a53a1efbf74, 0x95181f80b95f81f8, 0x4e1633382882c0e8, 0x99c1acdd0d4c226a,
		}},
		{"IBM02S@0.06 k=4", true, []uint64{
			0xb0444143351a2a75, 0xd3531b673b05bc70, 0x2994771e7e637b36,
			0xa22ba198cad3bfc, 0xc8c6ad90f6ed0c12, 0xc3ceb35da2f8b490,
		}},
	} {
		for _, workers := range []int{1, 2, 8} {
			cfg := multilevel.Config{CoarsenWorkers: workers}
			var h *multilevel.Hierarchy
			if tc.kway {
				p4 := partition.NewFree(presetProblem(t, "IBM02S", 0.06, 0).H, 4, 0.1)
				h = multilevel.BuildKWayHierarchy(p4, cfg, rand.New(rand.NewPCG(9, 10)))
			} else {
				p := presetProblem(t, "IBM01S", 0.08, 0.2)
				h = multilevel.BuildHierarchy(p, cfg, rand.New(rand.NewPCG(17, 23)))
			}
			if got := h.LevelFingerprints(); !slices.Equal(got, tc.want) {
				t.Errorf("%s workers=%d: level fingerprints\n got %#x\nwant %#x", tc.name, workers, got, tc.want)
			}
		}
	}
}
