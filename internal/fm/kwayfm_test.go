package fm_test

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// fourClusters builds 4 groups of n vertices joined in a chain by `bridges`
// 2-pin nets per junction; the optimal 4-way split cuts 3*bridges nets.
func fourClusters(n, bridges int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 4*n; i++ {
		b.AddVertex(1)
	}
	for g := 0; g < 4; g++ {
		base := g * n
		for i := 0; i < n; i++ {
			b.AddNet(base+i, base+(i+1)%n)
			b.AddNet(base+i, base+(i+2)%n)
		}
	}
	for g := 0; g+1 < 4; g++ {
		for i := 0; i < bridges; i++ {
			b.AddNet(g*n+i%n, (g+1)*n+i%n)
		}
	}
	return mustBuild(b)
}

func TestKWayPartitionImproves(t *testing.T) {
	h := fourClusters(50, 2)
	p := partition.NewFree(h, 4, 0.05)
	rng := rand.New(rand.NewPCG(31, 31))
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	before := partition.KMinus1(h, initial)
	res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if res.KMinus1 >= before {
		t.Errorf("k-way FM did not improve: %d -> %d", before, res.KMinus1)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.KMinus1 != partition.KMinus1(h, res.Assignment) {
		t.Errorf("reported KMinus1 %d != recomputed %d", res.KMinus1, partition.KMinus1(h, res.Assignment))
	}
	if res.Cut != partition.Cut(h, res.Assignment) {
		t.Errorf("reported cut %d != recomputed %d", res.Cut, partition.Cut(h, res.Assignment))
	}
	t.Logf("k-way FM: lambda-1 %d -> %d (random start)", before, res.KMinus1)
}

func TestKWayPartitionConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		b := hypergraph.NewBuilder(1)
		nv := 20 + int(seed%30)
		for i := 0; i < nv; i++ {
			b.AddVertex(int64(1 + rng.IntN(3)))
		}
		for e := 0; e < 2*nv; e++ {
			sz := 2 + rng.IntN(3)
			b.AddNet(rng.Perm(nv)[:sz]...)
		}
		h := mustBuild(b)
		k := 2 + rng.IntN(3)
		p := partition.NewFree(h, k, 0.15)
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			return true // rare overconstrained draw
		}
		policy := fm.LIFO
		if seed%2 == 0 {
			policy = fm.CLIP
		}
		res, err := fm.Refine(p, initial, fm.Config{Policy: policy})
		if err != nil {
			return false
		}
		if p.Feasible(res.Assignment) != nil {
			return false
		}
		if res.KMinus1 != partition.KMinus1(h, res.Assignment) {
			return false
		}
		return res.KMinus1 <= partition.KMinus1(h, initial)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKWayPartitionK2MatchesBipartitionObjective(t *testing.T) {
	h := twoClusters(30, 3)
	p := partition.NewBipartition(h, 0.05)
	rng := rand.New(rand.NewPCG(33, 33))
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	// For k=2 the lambda-1 objective IS the cut.
	if res.KMinus1 != res.Cut {
		t.Errorf("k=2: KMinus1 %d != Cut %d", res.KMinus1, res.Cut)
	}
}

func TestKWayPartitionRespectsMasks(t *testing.T) {
	h := fourClusters(30, 2)
	p := partition.NewFree(h, 4, 0.1)
	p.Fix(0, 3)
	p.Restrict(40, partition.Single(1).With(2))
	rng := rand.New(rand.NewPCG(34, 34))
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	res, err := fm.Refine(p, initial, fm.Config{Policy: fm.CLIP})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if res.Assignment[0] != 3 {
		t.Errorf("fixed vertex moved to %d", res.Assignment[0])
	}
	if got := res.Assignment[40]; got != 1 && got != 2 {
		t.Errorf("OR-region vertex in part %d, want 1 or 2", got)
	}
}

func TestKWayPartitionPassCutoff(t *testing.T) {
	h := fourClusters(40, 2)
	p := partition.NewFree(h, 4, 0.1)
	rng := rand.New(rand.NewPCG(35, 35))
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO, MaxPassFraction: 0.1})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	limit := res.Movable / 10
	if limit < 1 {
		limit = 1
	}
	for i, ps := range res.Passes {
		if i > 0 && ps.Moves > limit {
			t.Errorf("pass %d made %d moves, cutoff %d", i, ps.Moves, limit)
		}
	}
}

func TestKWayPartitionErrors(t *testing.T) {
	h := fourClusters(10, 1)
	p := partition.NewFree(h, 4, 0.1)
	bad := make(partition.Assignment, h.NumVertices()) // all in part 0
	if _, err := fm.Refine(p, bad, fm.Config{}); err == nil {
		t.Error("want error for infeasible initial")
	}
	rng := rand.New(rand.NewPCG(36, 36))
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	for _, f := range []float64{-1, 1.5, math.NaN()} {
		if _, err := fm.Refine(p, initial, fm.Config{MaxPassFraction: f}); err == nil {
			t.Errorf("MaxPassFraction %v: want error for bad fraction", f)
		}
	}
}

func TestKWayPartitionAllFixed(t *testing.T) {
	h := fourClusters(10, 1)
	p := partition.NewFree(h, 4, 0.3)
	initial := make(partition.Assignment, h.NumVertices())
	for v := range initial {
		initial[v] = int8(v / 10)
		p.Fix(v, v/10)
	}
	res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if res.Movable != 0 || len(res.Passes) != 0 {
		t.Errorf("movable=%d passes=%d", res.Movable, len(res.Passes))
	}
}

func TestKWayBeatsGreedyRefine(t *testing.T) {
	h := fourClusters(60, 3)
	p := partition.NewFree(h, 4, 0.05)
	rng := rand.New(rand.NewPCG(37, 37))
	var fmSum, greedySum int64
	for trial := 0; trial < 5; trial++ {
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			t.Fatalf("RandomFeasible: %v", err)
		}
		res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO})
		if err != nil {
			t.Fatalf("Refine: %v", err)
		}
		_, greedy, err := parallelRefine(p, initial, fm.Config{}, 1, rng.Uint64(), &fm.Scratch{})
		if err != nil {
			t.Fatalf("ParallelRefine: %v", err)
		}
		fmSum += res.Cut
		greedySum += partition.Cut(h, greedy)
	}
	t.Logf("avg cut over 5 random starts: k-way FM=%d, greedy=%d", fmSum/5, greedySum/5)
	// FM hill-climbs through zero/negative moves; it should not lose to the
	// strictly greedy round stage on average.
	if fmSum > greedySum+greedySum/10+5 {
		t.Errorf("k-way FM (%d) notably worse than greedy refinement (%d)", fmSum, greedySum)
	}
}
