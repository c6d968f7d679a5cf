package multilevel_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

func TestVCycleNeverWorsens(t *testing.T) {
	h := clusters(2, 400, 8)
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(21, 21))
	base, err := multilevel.Partition(p, multilevel.Config{}, rng)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	v, err := multilevel.VCycle(p, base.Assignment, multilevel.Config{}, rng)
	if err != nil {
		t.Fatalf("VCycle: %v", err)
	}
	if v.Cut > base.Cut {
		t.Errorf("V-cycle worsened the cut: %d -> %d", base.Cut, v.Cut)
	}
	if err := p.Feasible(v.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	if v.Cut != partition.Cut(h, v.Assignment) {
		t.Errorf("cut mismatch")
	}
}

func TestVCycleRespectsFixed(t *testing.T) {
	h := clusters(2, 300, 6)
	p := partition.NewBipartition(h, 0.05)
	rng := rand.New(rand.NewPCG(22, 22))
	fixed := map[int]int{}
	for _, v := range rng.Perm(h.NumVertices())[:60] {
		part := rng.IntN(2)
		p.Fix(v, part)
		fixed[v] = part
	}
	base, err := multilevel.Partition(p, multilevel.Config{}, rng)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	res, err := multilevel.VCycle(p, base.Assignment, multilevel.Config{}, rng)
	if err != nil {
		t.Fatalf("VCycle: %v", err)
	}
	for v, part := range fixed {
		if int(res.Assignment[v]) != part {
			t.Errorf("fixed vertex %d moved", v)
		}
	}
}

func TestVCycleErrors(t *testing.T) {
	h := clusters(2, 50, 2)
	rng := rand.New(rand.NewPCG(23, 23))
	p4 := partition.NewFree(h, 4, 0.1)
	// All-zeros is infeasible for a balanced 4-way problem; VCycle accepts
	// any k but must still reject infeasible inputs.
	if _, err := multilevel.VCycle(p4, make(partition.Assignment, h.NumVertices()), multilevel.Config{}, rng); err == nil {
		t.Error("want error for infeasible k-way input")
	}
	p := partition.NewBipartition(h, 0.02)
	bad := make(partition.Assignment, h.NumVertices()) // all in part 0
	if _, err := multilevel.VCycle(p, bad, multilevel.Config{}, rng); err == nil {
		t.Error("want error for infeasible input")
	}
}

func TestPartitionWithVCycles(t *testing.T) {
	h := clusters(4, 150, 4)
	p := partition.NewBipartition(h, 0.02)
	plain, err := solve(p, multilevel.Config{}, multilevel.Spec{}, rand.New(rand.NewPCG(24, 24)))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	vc, err := solve(p, multilevel.Config{}, multilevel.Spec{VCycles: 2}, rand.New(rand.NewPCG(24, 24)))
	if err != nil {
		t.Fatalf("Solve with V-cycles: %v", err)
	}
	// Same seed stream: the start's Partition run replays, so V-cycles can
	// only improve or match it.
	if vc.Cut > plain.Cut {
		t.Errorf("V-cycles worsened: %d -> %d", plain.Cut, vc.Cut)
	}
	if err := p.Feasible(vc.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}
