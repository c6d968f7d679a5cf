package fm_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// diffProblem draws a random fixed-vertex problem: random k, net sizes,
// weighted nets, multi-resource vertex weights, and a mix of free, fixed,
// and OR-region (two-part mask) vertices.
func diffProblem(rng *rand.Rand) (*partition.Problem, partition.Assignment, bool) {
	nv := 20 + rng.IntN(41)
	nr := 1 + rng.IntN(2)
	k := 2 + rng.IntN(4)
	b := hypergraph.NewBuilder(nr)
	for v := 0; v < nv; v++ {
		w := make([]int64, nr)
		for r := range w {
			w[r] = int64(1 + rng.IntN(4))
		}
		b.AddVertex(w...)
	}
	ne := nv + rng.IntN(2*nv)
	for e := 0; e < ne; e++ {
		sz := 2 + rng.IntN(5)
		if sz > nv {
			sz = nv
		}
		b.AddWeightedNet(int64(1+rng.IntN(3)), rng.Perm(nv)[:sz]...)
	}
	p := partition.NewFree(mustBuild(b), k, 0.2+0.2*rng.Float64())
	for v := 0; v < nv; v++ {
		switch rng.IntN(5) {
		case 0: // fixed terminal
			p.Fix(v, rng.IntN(k))
		case 1: // OR region spanning two parts
			if k > 2 {
				a := rng.IntN(k)
				c := rng.IntN(k)
				for c == a {
					c = rng.IntN(k)
				}
				p.Restrict(v, partition.Single(a).With(c))
			}
		}
	}
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, nil, false
	}
	return p, initial, true
}

func diffConfig(rng *rand.Rand) fm.Config {
	cfg := fm.Config{Policy: fm.LIFO}
	if rng.IntN(2) == 1 {
		cfg.Policy = fm.CLIP
	}
	if rng.IntN(2) == 1 {
		cfg.MaxPassFraction = 0.25 + 0.5*rng.Float64()
	}
	return cfg
}

// TestKernelMatchesReference differentially tests the net-state-aware kernel
// against the frozen reference (reference_test.go) over random fixed-vertex
// problems: assignments, objectives, and per-pass statistics must all be
// identical — the rewrite is an optimization, not a behavioural change.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xd1ff, 4))
	trials := 0
	for trials < 60 {
		p, initial, ok := diffProblem(rng)
		if !ok {
			continue
		}
		trials++
		cfg := diffConfig(rng)
		name := fmt.Sprintf("trial %d (k=%d %s)", trials, p.K, cfg.Policy)
		got, err := fm.Refine(p, initial, cfg)
		if err != nil {
			t.Fatalf("%s: optimized: %v", name, err)
		}
		want, err := fm.KWayPartitionReference(p, initial, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("%s: assignments diverge", name)
		}
		if got.Cut != want.Cut || got.KMinus1 != want.KMinus1 {
			t.Fatalf("%s: cut %d/%d, want %d/%d", name, got.Cut, got.KMinus1, want.Cut, want.KMinus1)
		}
		if !reflect.DeepEqual(got.Passes, want.Passes) {
			t.Fatalf("%s: pass stats diverge:\n got %+v\nwant %+v", name, got.Passes, want.Passes)
		}
		if got.Movable != want.Movable {
			t.Fatalf("%s: movable %d, want %d", name, got.Movable, want.Movable)
		}
	}
}

// TestBipartitionMatchesReference repeats the differential test through the
// frozen k = 2 entry point on bipartitioning instances.
func TestBipartitionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xd1ff, 2))
	trials := 0
	for trials < 40 {
		nv := 20 + rng.IntN(41)
		b := hypergraph.NewBuilder(1)
		for v := 0; v < nv; v++ {
			b.AddVertex(int64(1 + rng.IntN(4)))
		}
		for e := 0; e < 2*nv; e++ {
			sz := 2 + rng.IntN(4)
			b.AddNet(rng.Perm(nv)[:sz]...)
		}
		p := partition.NewBipartition(mustBuild(b), 0.15)
		for v := 0; v < nv; v++ {
			if rng.IntN(4) == 0 {
				p.Fix(v, rng.IntN(2))
			}
		}
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			continue
		}
		trials++
		cfg := diffConfig(rng)
		got, err := fm.Refine(p, initial, cfg)
		if err != nil {
			t.Fatalf("trial %d: optimized: %v", trials, err)
		}
		want, err := fm.BipartitionReference(p, initial, cfg)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trials, err)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) || got.Cut != want.Cut {
			t.Fatalf("trial %d: diverged (cut %d vs %d)", trials, got.Cut, want.Cut)
		}
		if !reflect.DeepEqual(got.Passes, want.Passes) {
			t.Fatalf("trial %d: pass stats diverge", trials)
		}
	}
}

// TestKernelPinScanReduction holds the net-state-aware kernel's work bar on
// flat FM refinement of IBM01S at scale 0.2: over both policies at
// fixed-vertex fractions 0/25/50% (the paper's Table III regime), five random
// starts each, every run must reproduce the frozen reference bit for bit, and
// the kernel must execute at most 1/1.3 of the reference's critical-net pin
// scans in aggregate (fm.KernelStats counts both sides under identical
// accounting).
func TestKernelPinScanReduction(t *testing.T) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.2))
	if err != nil {
		t.Fatal(err)
	}
	var total fm.KernelStats
	for _, fixfrac := range []float64{0, 0.25, 0.5} {
		p := partition.NewBipartition(nl.H, 0.02)
		if fixfrac > 0 {
			rng := rand.New(rand.NewPCG(0xf1f, uint64(fixfrac*100)))
			order := rng.Perm(nl.H.NumVertices())
			for _, v := range order[:int(fixfrac*float64(len(order)))] {
				p.Fix(v, rng.IntN(2))
			}
		}
		for _, policy := range []fm.Policy{fm.LIFO, fm.CLIP} {
			for seed := uint64(1); seed <= 5; seed++ {
				initial, err := partition.RandomFeasible(p, rand.New(rand.NewPCG(seed, 0xcafe)))
				if err != nil {
					t.Fatal(err)
				}
				got, err := fm.Refine(p, initial, fm.Config{Policy: policy, Stats: &total})
				if err != nil {
					t.Fatal(err)
				}
				want, err := fm.BipartitionReference(p, initial, fm.Config{Policy: policy})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cut != want.Cut || !reflect.DeepEqual(got.Assignment, want.Assignment) {
					t.Fatalf("%v fixed=%.0f%% seed=%d: kernel cut %d != reference cut %d (or assignments differ)",
						policy, 100*fixfrac, seed, got.Cut, want.Cut)
				}
			}
		}
	}
	reduction := float64(total.PinsScanned+total.PinScansAvoided) / float64(total.PinsScanned)
	t.Logf("pin-scan reduction %.2fx (%d scanned, %d avoided)", reduction, total.PinsScanned, total.PinScansAvoided)
	if reduction < 1.3 {
		t.Errorf("pin-scan reduction %.2fx below 1.3x (%d scanned, %d avoided)",
			reduction, total.PinsScanned, total.PinScansAvoided)
	}
}
