package multilevel_test

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// clusters builds g groups of n vertices; each group is a ring with chords,
// and consecutive groups are joined by `bridges` 2-pin nets. The optimal
// g-way cut separates the groups.
func clusters(g, n, bridges int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < g*n; i++ {
		b.AddVertex(1)
	}
	for gi := 0; gi < g; gi++ {
		base := gi * n
		for i := 0; i < n; i++ {
			b.AddNet(base+i, base+(i+1)%n)
			b.AddNet(base+i, base+(i+2)%n)
		}
	}
	for gi := 0; gi+1 < g; gi++ {
		for i := 0; i < bridges; i++ {
			b.AddNet(gi*n+i%n, (gi+1)*n+i%n)
		}
	}
	return mustBuild(b)
}

func TestPartitionTwoClusters(t *testing.T) {
	h := clusters(2, 400, 6)
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(1, 1))
	res, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 4}, rng)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// Splitting the two groups cuts exactly the 6 bridges; a small arc trick
	// can also reach 6 but nothing beats it by much. Demand near-optimal.
	if res.Cut > 6 || res.Cut < 2 {
		t.Errorf("cut = %d, want near 6 (the bridges)", res.Cut)
	}
	if res.Levels == 0 {
		t.Error("expected coarsening levels > 0 for an 800-vertex instance")
	}
	if res.Starts != 4 {
		t.Errorf("Starts = %d, want 4", res.Starts)
	}
}

// mustBuild is b.Build for test inputs that are correct by construction.
func mustBuild(b *hypergraph.Builder) *hypergraph.Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func TestPartitionCutConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		b := hypergraph.NewBuilder(1)
		nv := 100 + int(seed%100)
		for i := 0; i < nv; i++ {
			b.AddVertex(int64(1 + rng.IntN(3)))
		}
		for e := 0; e < 2*nv; e++ {
			sz := 2 + rng.IntN(3)
			b.AddNet(rng.Perm(nv)[:sz]...)
		}
		p := partition.NewBipartition(mustBuild(b), 0.1)
		res, err := multilevel.Partition(p, multilevel.Config{}, rng)
		if err != nil {
			return false
		}
		return res.Cut == partition.Cut(p.H, res.Assignment) && p.Feasible(res.Assignment) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRespectsFixed(t *testing.T) {
	h := clusters(2, 200, 4)
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(2, 2))
	// Fix 10% of vertices randomly.
	fixed := map[int]int{}
	for _, v := range rng.Perm(h.NumVertices())[:40] {
		part := rng.IntN(2)
		p.Fix(v, part)
		fixed[v] = part
	}
	res, err := multilevel.Partition(p, multilevel.Config{}, rng)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for v, part := range fixed {
		if int(res.Assignment[v]) != part {
			t.Errorf("fixed vertex %d moved to %d, want %d", v, res.Assignment[v], part)
		}
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestMultistartNeverWorseThanSingle(t *testing.T) {
	h := clusters(2, 300, 8)
	p := partition.NewBipartition(h, 0.02)
	// Same seed: the first start of the 4-start run replays the 1-start run.
	single, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 1}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatalf("single: %v", err)
	}
	multi, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 4}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatalf("multi: %v", err)
	}
	if multi.Cut > single.Cut {
		t.Errorf("4-start cut %d worse than 1-start cut %d", multi.Cut, single.Cut)
	}
}

func TestPartitionLIFOPolicy(t *testing.T) {
	h := clusters(2, 200, 5)
	p := partition.NewBipartition(h, 0.02)
	cfg := multilevel.Config{Policy: fm.LIFO}
	res, err := multilevel.Partition(p, cfg, rand.New(rand.NewPCG(4, 4)))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestPartitionWithPassCutoff(t *testing.T) {
	h := clusters(2, 200, 5)
	p := partition.NewBipartition(h, 0.02)
	res, err := multilevel.Partition(p, multilevel.Config{MaxPassFraction: 0.25}, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
}

func TestPartitionErrors(t *testing.T) {
	h := clusters(2, 20, 2)
	p := partition.NewFree(h, 4, 0.1)
	if _, err := multilevel.Partition(p, multilevel.Config{}, rand.New(rand.NewPCG(6, 6))); err == nil {
		t.Error("want error for k != 2")
	}
	// Overconstrained: everything fixed to part 0.
	p2 := partition.NewBipartition(h, 0.02)
	for v := 0; v < h.NumVertices(); v++ {
		p2.Fix(v, 0)
	}
	if _, err := multilevel.Partition(p2, multilevel.Config{}, rand.New(rand.NewPCG(7, 7))); err == nil {
		t.Error("want error for overconstrained instance")
	}
}

// TestConfigValidation checks that every entry point rejects an
// out-of-range pass cutoff or pass bound with an error naming the field,
// rather than failing later as if the instance were overconstrained or
// silently running to convergence.
func TestConfigValidation(t *testing.T) {
	h := clusters(2, 200, 4)
	p := partition.NewBipartition(h, 0.05)
	hiers, err := multilevel.BuildHierarchies(context.Background(), p, multilevel.Config{}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name string
		run  func(cfg multilevel.Config) error
	}{
		{"Partition", func(cfg multilevel.Config) error {
			_, err := multilevel.Partition(p, cfg, rand.New(rand.NewPCG(1, 1)))
			return err
		}},
		{"PartitionKWay", func(cfg multilevel.Config) error {
			_, err := multilevel.PartitionKWay(p, cfg, rand.New(rand.NewPCG(1, 1)))
			return err
		}},
		{"Solve", func(cfg multilevel.Config) error {
			_, err := multilevel.Solve(context.Background(), p, cfg, multilevel.Spec{Starts: 2}, rand.New(rand.NewPCG(1, 1)))
			return err
		}},
		{"BuildHierarchies", func(cfg multilevel.Config) error {
			_, err := multilevel.BuildHierarchies(context.Background(), p, cfg, 1, 1)
			return err
		}},
		{"MultistartOnHierarchies", func(cfg multilevel.Config) error {
			_, err := multilevel.MultistartOnHierarchies(context.Background(), hiers, cfg, 2, 1)
			return err
		}},
	}
	bad := []struct {
		field string
		cfg   multilevel.Config
	}{
		{"MaxPassFraction", multilevel.Config{MaxPassFraction: -0.5}},
		{"MaxPassFraction", multilevel.Config{MaxPassFraction: 1.5}},
		{"MaxPassFraction", multilevel.Config{MaxPassFraction: math.NaN()}},
	}
	for _, e := range entries {
		for _, b := range bad {
			err := e.run(b.cfg)
			if err == nil || !strings.Contains(err.Error(), b.field) {
				t.Errorf("%s with %+v: error %v, want one naming %s", e.name, b.cfg, err, b.field)
			}
		}
		for _, ok := range []multilevel.Config{{MaxPassFraction: 0}, {MaxPassFraction: 1}, {MaxPassFraction: 0.3}} {
			if err := e.run(ok); err != nil {
				t.Errorf("%s with %+v: %v", e.name, ok, err)
			}
		}
	}
}

func TestRecursiveBisectFourClusters(t *testing.T) {
	h := clusters(4, 150, 3)
	p := partition.NewFree(h, 4, 0.05)
	res, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rand.New(rand.NewPCG(8, 8)))
	if err != nil {
		t.Fatalf("RecursiveBisect: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.Cut != partition.Cut(h, res.Assignment) {
		t.Errorf("cut mismatch")
	}
	// The chain-of-clusters optimum cuts 3 bridge bundles = 9 nets; allow
	// slack for the heuristic but demand it beats a random split by far.
	if res.Cut > 30 {
		t.Errorf("4-way cut = %d, want near 9", res.Cut)
	}
}

func TestRecursiveBisectRespectsFixed(t *testing.T) {
	h := clusters(4, 100, 3)
	p := partition.NewFree(h, 4, 0.1)
	p.Fix(0, 3)
	p.Fix(150, 1)
	p.Restrict(200, partition.Single(0).With(1)) // OR-region: either of parts 0,1
	res, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatalf("RecursiveBisect: %v", err)
	}
	if res.Assignment[0] != 3 || res.Assignment[150] != 1 {
		t.Errorf("fixed vertices: a[0]=%d (want 3) a[150]=%d (want 1)", res.Assignment[0], res.Assignment[150])
	}
	if got := res.Assignment[200]; got != 0 && got != 1 {
		t.Errorf("OR-region vertex in part %d, want 0 or 1", got)
	}
}

// TestRecursiveBisectNonPowerOfTwo checks that k=3 (formerly rejected) now
// splits ⌈k/2⌉/⌊k/2⌋ with proportional targets and yields a feasible,
// near-natural-clustering partition.
func TestRecursiveBisectNonPowerOfTwo(t *testing.T) {
	h := clusters(3, 30, 2)
	p := partition.NewFree(h, 3, 0.1)
	res, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rand.New(rand.NewPCG(10, 10)))
	if err != nil {
		t.Fatalf("RecursiveBisect k=3: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	counts := make(map[int8]int)
	for _, q := range res.Assignment {
		counts[q]++
	}
	if len(counts) != 3 {
		t.Errorf("used %d parts, want 3", len(counts))
	}
}

func TestRecursiveBisectK2MatchesPartitionShape(t *testing.T) {
	h := clusters(2, 150, 4)
	p := partition.NewBipartition(h, 0.02)
	res, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rand.New(rand.NewPCG(11, 11)))
	if err != nil {
		t.Fatalf("RecursiveBisect: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	if res.Cut > 20 {
		t.Errorf("k=2 recursive bisect cut = %d, want near 4", res.Cut)
	}
}

// TestFixedMakesInstancesEasier reproduces the paper's headline observation
// at test scale: with 30% of vertices fixed consistently with a good
// solution, a single start lands within a few percent of the best known cut.
func TestFixedMakesInstancesEasier(t *testing.T) {
	h := clusters(2, 300, 10)
	free := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(12, 12))
	best, err := solve(free, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 8}, rng)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	good := partition.NewBipartition(h, 0.02)
	for _, v := range rng.Perm(h.NumVertices())[:180] { // 30%
		good.Fix(v, int(best.Assignment[v]))
	}
	avg := func(p *partition.Problem) float64 {
		var sum int64
		const trials = 6
		for i := 0; i < trials; i++ {
			res, err := multilevel.Partition(p, multilevel.Config{}, rng)
			if err != nil {
				t.Fatalf("Partition: %v", err)
			}
			sum += res.Cut
		}
		return float64(sum) / trials
	}
	freeAvg := avg(free)
	goodAvg := avg(good)
	t.Logf("avg single-start cut: free=%.1f, 30%% good-fixed=%.1f, best=%d", freeAvg, goodAvg, best.Cut)
	// On this tiny fixture free single starts already hit the optimum, and
	// the paper itself reports mild nonmonotonicity in the good regime
	// ("relatively overconstrained instances"), so we only demand that
	// fixing does not blow quality up; the full easiness claim is exercised
	// at realistic scale by internal/experiments (Figures 1-2).
	if goodAvg > 2*freeAvg+4 {
		t.Errorf("good-regime fixing degraded single starts badly: %.1f vs free %.1f", goodAvg, freeAvg)
	}
}

func TestAdaptiveMultistart(t *testing.T) {
	h := clusters(2, 300, 8)
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(31, 31))
	res, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 10, Patience: 2}, rng)
	if err != nil {
		t.Fatalf("adaptive Solve: %v", err)
	}
	if res.Starts < 3 || res.Starts > 10 {
		t.Errorf("Starts = %d, want in [3,10] (patience 2)", res.Starts)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Errorf("infeasible: %v", err)
	}
	// The paper-study setting: 16 starts, patience 2.
	res2, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: 16, Patience: 2}, rng)
	if err != nil {
		t.Fatalf("adaptive Solve 16/2: %v", err)
	}
	if res2.Starts < 3 || res2.Starts > 16 {
		t.Errorf("default Starts = %d", res2.Starts)
	}
}
