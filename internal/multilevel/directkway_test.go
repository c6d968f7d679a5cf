package multilevel_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// directKs is the part-count sweep the issue requires for direct k-way
// coverage; note 3 is not a power of two.
var directKs = []int{2, 3, 4, 8}

// TestPartitionKWayFeasible checks feasibility and full part usage of the
// direct driver on naturally k-clustered instances for every k in the sweep.
func TestPartitionKWayFeasible(t *testing.T) {
	for _, k := range directKs {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			h := clusters(k, 80, 3)
			p := partition.NewFree(h, k, 0.1)
			res, err := multilevel.PartitionKWay(p, multilevel.Config{}, rand.New(rand.NewPCG(31, uint64(k))))
			if err != nil {
				t.Fatalf("PartitionKWay: %v", err)
			}
			if err := p.Feasible(res.Assignment); err != nil {
				t.Fatalf("infeasible: %v", err)
			}
			if res.Cut != partition.Cut(h, res.Assignment) {
				t.Errorf("reported cut %d != recomputed %d", res.Cut, partition.Cut(h, res.Assignment))
			}
			counts := make(map[int8]int)
			for _, q := range res.Assignment {
				counts[q]++
			}
			if len(counts) != k {
				t.Errorf("used %d parts, want %d", len(counts), k)
			}
			if res.Levels == 0 {
				t.Errorf("expected coarsening levels > 0 for %d vertices", h.NumVertices())
			}
		})
	}
}

// TestPartitionKWayHonorsFixedVertices fixes a slice of each natural cluster
// into a chosen part and checks the direct driver keeps every fixed vertex in
// place at every k.
func TestPartitionKWayHonorsFixedVertices(t *testing.T) {
	for _, k := range directKs {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			const n = 60
			h := clusters(k, n, 3)
			p := partition.NewFree(h, k, 0.1)
			// Fix the first quarter of each cluster into its natural part.
			for g := 0; g < k; g++ {
				for i := 0; i < n/4; i++ {
					p.Fix(g*n+i, g)
				}
			}
			res, err := multilevel.PartitionKWay(p, multilevel.Config{}, rand.New(rand.NewPCG(32, uint64(k))))
			if err != nil {
				t.Fatalf("PartitionKWay: %v", err)
			}
			if err := p.Feasible(res.Assignment); err != nil {
				t.Fatalf("infeasible: %v", err)
			}
			for g := 0; g < k; g++ {
				for i := 0; i < n/4; i++ {
					if got := int(res.Assignment[g*n+i]); got != g {
						t.Fatalf("fixed vertex %d moved to part %d, want %d", g*n+i, got, g)
					}
				}
			}
		})
	}
}

// TestPartitionKWayHonorsORMasks restricts a slice of vertices to a two-part
// OR-region and checks the direct driver lands each inside its region at
// every level of the pipeline.
func TestPartitionKWayHonorsORMasks(t *testing.T) {
	for _, k := range directKs {
		if k < 3 {
			continue // an OR over both parts of k=2 is unconstrained
		}
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			const n = 60
			h := clusters(k, n, 3)
			p := partition.NewFree(h, k, 0.1)
			// Every 7th vertex may live only in part 0 or part k-1.
			region := partition.Single(0).With(k - 1)
			var restricted []int
			for v := 0; v < h.NumVertices(); v += 7 {
				p.Restrict(v, region)
				restricted = append(restricted, v)
			}
			res, err := multilevel.PartitionKWay(p, multilevel.Config{}, rand.New(rand.NewPCG(33, uint64(k))))
			if err != nil {
				t.Fatalf("PartitionKWay: %v", err)
			}
			if err := p.Feasible(res.Assignment); err != nil {
				t.Fatalf("infeasible: %v", err)
			}
			for _, v := range restricted {
				if q := int(res.Assignment[v]); !region.Contains(q) {
					t.Fatalf("OR-region vertex %d in part %d, want within mask %b", v, q, region)
				}
			}
		})
	}
}

// TestMultistartKWaySerialParallelEquivalence verifies the determinism
// contract for the direct driver: Solve with Spec.KWay at Workers 1, 2 and
// 5 returns results bit-identical to the serial (Workers 1) run
// results from the same incoming rng state. Runs under -race in CI.
func TestMultistartKWaySerialParallelEquivalence(t *testing.T) {
	for _, k := range []int{3, 4} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			h := clusters(k, 50, 3)
			p := partition.NewFree(h, k, 0.1)
			// Mix in fixed vertices so the contract is exercised in the
			// paper's regime.
			for g := 0; g < k; g++ {
				p.Fix(g*50, g)
			}
			const starts = 6
			serial, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: starts, KWay: true}, rand.New(rand.NewPCG(77, uint64(k))))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{1, 2, 5} {
				cfg := multilevel.Config{Workers: workers}
				par, err := solve(p, cfg, multilevel.Spec{Starts: starts, KWay: true}, rand.New(rand.NewPCG(77, uint64(k))))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if par.Cut != serial.Cut || !reflect.DeepEqual(par.Assignment, serial.Assignment) {
					t.Errorf("workers=%d: parallel result differs from serial (cut %d vs %d)", workers, par.Cut, serial.Cut)
				}
				if par.Starts != serial.Starts {
					t.Errorf("workers=%d: Starts = %d, want %d", workers, par.Starts, serial.Starts)
				}
			}
		})
	}
}

// TestDirectKWayNotWorseThanRB is the acceptance gate: over the shared
// presets/seeds below, direct k-way's mean cut must not exceed recursive
// bisection's. Both run as single starts per seed from identical rng states.
func TestDirectKWayNotWorseThanRB(t *testing.T) {
	if testing.Short() {
		t.Skip("quality comparison is moderately expensive")
	}
	for _, k := range []int{3, 4, 8} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			h := clusters(k, 70, 4)
			p := partition.NewFree(h, k, 0.1)
			var sumDirect, sumRB int64
			const seeds = 5
			for s := 0; s < seeds; s++ {
				direct, err := multilevel.PartitionKWay(p, multilevel.Config{}, rand.New(rand.NewPCG(91, uint64(100*k+s))))
				if err != nil {
					t.Fatalf("PartitionKWay seed %d: %v", s, err)
				}
				rb, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rand.New(rand.NewPCG(91, uint64(100*k+s))))
				if err != nil {
					t.Fatalf("RecursiveBisect seed %d: %v", s, err)
				}
				sumDirect += direct.Cut
				sumRB += rb.Cut
			}
			t.Logf("k=%d mean cut: direct %.1f, rb %.1f", k, float64(sumDirect)/seeds, float64(sumRB)/seeds)
			if sumDirect > sumRB {
				t.Errorf("direct k-way mean cut %.1f exceeds recursive bisection's %.1f", float64(sumDirect)/seeds, float64(sumRB)/seeds)
			}
		})
	}
}

// TestSolveKWaySpec covers the Spec combinations the direct k-way path
// shares with the 2-way one: k > 2 demands Spec.KWay, Hierarchies equal to
// Starts reproduces the unshared run bit for bit, and follower starts over
// shared k-way hierarchies stay feasible and worker-count invariant.
func TestSolveKWaySpec(t *testing.T) {
	h := clusters(4, 60, 3)
	p := partition.NewFree(h, 4, 0.1)
	for g := 0; g < 4; g++ {
		p.Fix(g*60, g)
	}
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(41, 4)) }
	if _, err := solve(p, multilevel.Config{}, multilevel.Spec{Starts: 2}, rng()); err == nil {
		t.Error("k=4 without Spec.KWay: want error")
	}
	plain, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 4, KWay: true}, rng())
	if err != nil {
		t.Fatal(err)
	}
	owners, err := solve(p, multilevel.Config{Workers: 2}, multilevel.Spec{Starts: 4, KWay: true, Hierarchies: 4}, rng())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "hierarchies == starts", plain, owners)
	shared, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 4, KWay: true, Hierarchies: 2}, rng())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(shared.Assignment); err != nil {
		t.Fatalf("shared k-way infeasible: %v", err)
	}
	for _, workers := range []int{2, 3} {
		got, err := solve(p, multilevel.Config{Workers: workers}, multilevel.Spec{Starts: 4, KWay: true, Hierarchies: 2}, rng())
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("shared k-way workers=%d", workers), shared, got)
	}
}
