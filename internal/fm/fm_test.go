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

// twoClusters builds a netlist with two densely connected groups of n
// vertices each, joined by `bridges` 2-pin nets. The optimal bisection cuts
// exactly the bridges.
func twoClusters(n, bridges int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 2*n; i++ {
		b.AddVertex(1)
	}
	for g := 0; g < 2; g++ {
		base := g * n
		for i := 0; i < n; i++ {
			b.AddNet(base+i, base+(i+1)%n) // ring
			if i+2 < n {
				b.AddNet(base+i, base+i+2) // chords
			}
		}
	}
	for i := 0; i < bridges; i++ {
		b.AddNet(i%n, n+i%n)
	}
	return mustBuild(b)
}

// mustBuild is b.Build for test inputs that are correct by construction.
func mustBuild(b *hypergraph.Builder) *hypergraph.Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func randomProblem(seed uint64, nVerts int) (*partition.Problem, *rand.Rand) {
	rng := rand.New(rand.NewPCG(seed, 99))
	b := hypergraph.NewBuilder(1)
	for i := 0; i < nVerts; i++ {
		b.AddVertex(int64(1 + rng.IntN(4)))
	}
	ne := nVerts * 2
	for e := 0; e < ne; e++ {
		sz := 2 + rng.IntN(3)
		b.AddNet(rng.Perm(nVerts)[:sz]...)
	}
	h := mustBuild(b)
	return partition.NewBipartition(h, 0.1), rng
}

func TestBipartitionFindsOptimalOnTwoClusters(t *testing.T) {
	h := twoClusters(20, 2)
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(42, 0))
	best := int64(1 << 60)
	for start := 0; start < 8; start++ {
		res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO}, rng)
		if err != nil {
			t.Fatalf("RunFromRandom: %v", err)
		}
		if res.Cut < best {
			best = res.Cut
		}
	}
	if best != 2 {
		t.Errorf("best cut over 8 starts = %d, want 2 (the bridges)", best)
	}
}

func TestBipartitionCutConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		p, rng := randomProblem(seed, 30)
		res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO}, rng)
		if err != nil {
			return false
		}
		if res.Cut != partition.Cut(p.H, res.Assignment) {
			return false
		}
		return p.Feasible(res.Assignment) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBipartitionNeverWorseThanInitial(t *testing.T) {
	f := func(seed uint64) bool {
		p, rng := randomProblem(seed, 40)
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			return false
		}
		res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO})
		if err != nil {
			return false
		}
		return res.Cut <= partition.Cut(p.H, initial)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedVerticesStayPut(t *testing.T) {
	f := func(seed uint64) bool {
		p, rng := randomProblem(seed, 40)
		nv := p.H.NumVertices()
		type fix struct{ v, part int }
		var fixes []fix
		for v := 0; v < nv; v++ {
			if rng.IntN(4) == 0 {
				part := rng.IntN(2)
				p.Fix(v, part)
				fixes = append(fixes, fix{v, part})
			}
		}
		res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO}, rng)
		if err != nil {
			// Heavy fixing can make the 10% balance infeasible; skip.
			return true
		}
		for _, fx := range fixes {
			if int(res.Assignment[fx.v]) != fx.part {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIPPolicy(t *testing.T) {
	h := twoClusters(20, 2)
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(7, 0))
	best := int64(1 << 60)
	for start := 0; start < 8; start++ {
		res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.CLIP}, rng)
		if err != nil {
			t.Fatalf("RunFromRandom: %v", err)
		}
		if err := p.Feasible(res.Assignment); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		if res.Cut != partition.Cut(p.H, res.Assignment) {
			t.Fatalf("cut mismatch")
		}
		if res.Cut < best {
			best = res.Cut
		}
	}
	if best != 2 {
		t.Errorf("CLIP best cut = %d, want 2", best)
	}
}

func TestPassStats(t *testing.T) {
	p, rng := randomProblem(3, 60)
	res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO}, rng)
	if err != nil {
		t.Fatalf("RunFromRandom: %v", err)
	}
	if len(res.Passes) == 0 {
		t.Fatal("no passes recorded")
	}
	for i, ps := range res.Passes {
		if ps.Kept > ps.Moves {
			t.Errorf("pass %d: kept %d > moves %d", i, ps.Kept, ps.Moves)
		}
		if ps.Gain < 0 {
			t.Errorf("pass %d: negative gain %d", i, ps.Gain)
		}
	}
	last := res.Passes[len(res.Passes)-1]
	if last.Gain != 0 && len(res.Passes) < 64 {
		t.Errorf("run should end with a zero-gain pass, got %d", last.Gain)
	}
	moves := 0
	for _, ps := range res.Passes {
		moves += ps.Moves
	}
	if moves <= 0 {
		t.Errorf("total moves = %d", moves)
	}
}

func TestPassCutoffLimitsMoves(t *testing.T) {
	p, rng := randomProblem(5, 100)
	res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO, MaxPassFraction: 0.1}, rng)
	if err != nil {
		t.Fatalf("RunFromRandom: %v", err)
	}
	limit := int(0.1 * float64(res.Movable))
	if limit < 1 {
		limit = 1
	}
	for i, ps := range res.Passes {
		if i == 0 {
			continue // first pass is exempt, per the paper
		}
		if ps.Moves > limit {
			t.Errorf("pass %d made %d moves, cutoff %d", i, ps.Moves, limit)
		}
	}
	if len(res.Passes) > 1 && res.Passes[0].Moves <= limit {
		t.Logf("note: first pass made only %d moves (allowed)", res.Passes[0].Moves)
	}
}

func TestNoMovableVertices(t *testing.T) {
	h := twoClusters(4, 1)
	p := partition.NewBipartition(h, 0.25)
	for v := 0; v < h.NumVertices(); v++ {
		p.Fix(v, v/4) // first cluster in part 0, second in part 1
	}
	initial := make(partition.Assignment, h.NumVertices())
	for v := range initial {
		initial[v] = int8(v / 4)
	}
	res, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO})
	if err != nil {
		t.Fatalf("Refine: %v", err)
	}
	if res.Movable != 0 || len(res.Passes) != 0 {
		t.Errorf("movable=%d passes=%d, want 0/0", res.Movable, len(res.Passes))
	}
	if res.Cut != partition.Cut(h, initial) {
		t.Errorf("cut changed with no movable vertices")
	}
}

func TestBipartitionErrors(t *testing.T) {
	h := twoClusters(4, 1)
	initial := make(partition.Assignment, h.NumVertices())
	for v := 4; v < 8; v++ {
		initial[v] = 1
	}
	t.Run("infeasible initial", func(t *testing.T) {
		p := partition.NewBipartition(h, 0.02)
		bad := make(partition.Assignment, h.NumVertices()) // everything in part 0
		if _, err := fm.Refine(p, bad, fm.Config{}); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad fraction", func(t *testing.T) {
		p := partition.NewBipartition(h, 0.1)
		for _, f := range []float64{1.5, -0.5, math.NaN()} {
			if _, err := fm.Refine(p, initial, fm.Config{MaxPassFraction: f}); err == nil {
				t.Errorf("MaxPassFraction %v: want error", f)
			}
		}
	})
}

func TestORRegionVertexMovableInBipartition(t *testing.T) {
	h := twoClusters(10, 1)
	p := partition.NewBipartition(h, 0.1)
	// An OR-region over both parts is equivalent to free in bipartitioning.
	p.Restrict(0, partition.Single(0).With(1))
	rng := rand.New(rand.NewPCG(9, 9))
	res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO}, rng)
	if err != nil {
		t.Fatalf("RunFromRandom: %v", err)
	}
	if res.Movable != h.NumVertices() {
		t.Errorf("Movable = %d, want %d", res.Movable, h.NumVertices())
	}
}

func TestPolicyString(t *testing.T) {
	if fm.LIFO.String() != "LIFO" || fm.CLIP.String() != "CLIP" {
		t.Error("Policy.String wrong")
	}
	if fm.Policy(9).String() == "" {
		t.Error("unknown policy should still format")
	}
}

// TestTableIIShape checks the paper's Table II direction on a small scale:
// with many fixed terminals, the retained fraction of moves per pass (after
// the first) should not exceed the free case by much; typically it drops.
func TestTableIIShape(t *testing.T) {
	h := twoClusters(40, 4)
	keptFraction := func(fixedFrac float64) float64 {
		p := partition.NewBipartition(h, 0.1)
		rng := rand.New(rand.NewPCG(23, uint64(fixedFrac*100)))
		nv := h.NumVertices()
		nFix := int(fixedFrac * float64(nv))
		for _, v := range rng.Perm(nv)[:nFix] {
			p.Fix(v, rng.IntN(2))
		}
		totKept, totMovable := 0, 0
		for trial := 0; trial < 10; trial++ {
			res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.LIFO}, rng)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for i, ps := range res.Passes {
				if i == 0 {
					continue
				}
				totKept += ps.Kept
				totMovable += res.Movable
			}
		}
		if totMovable == 0 {
			return 0
		}
		return float64(totKept) / float64(totMovable)
	}
	free := keptFraction(0)
	heavy := keptFraction(0.4)
	t.Logf("kept fraction after first pass: free=%.3f 40%%fixed=%.3f", free, heavy)
	if heavy > free+0.3 {
		t.Errorf("kept fraction with heavy fixing (%.3f) unexpectedly exceeds free case (%.3f)", heavy, free)
	}
}

// TestScratchReuseMatchesFresh reuses one Scratch across runs on problems of
// different sizes and shapes, interleaved, and checks every result is
// bit-identical to a fresh-scratch run: stale state from a previous (larger)
// problem must never leak into the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	var probs []*partition.Problem
	var inits []partition.Assignment
	rng := rand.New(rand.NewPCG(21, 21))
	for i, nv := range []int{30, 120, 12, 60, 120, 30} {
		p, _ := randomProblem(uint64(i+1), nv)
		if i%2 == 1 { // alternate in some fixed vertices
			for _, v := range rng.Perm(nv)[:nv/5] {
				p.Fix(v, rng.IntN(2))
			}
		}
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			t.Fatalf("RandomFeasible(%d): %v", i, err)
		}
		probs = append(probs, p)
		inits = append(inits, initial)
	}
	sc := &fm.Scratch{}
	for _, policy := range []fm.Policy{fm.LIFO, fm.CLIP} {
		for i, p := range probs {
			cfg := fm.Config{Policy: policy}
			fresh, err := refineWith(p, inits[i], cfg, &fm.Scratch{})
			if err != nil {
				t.Fatalf("fresh run %d: %v", i, err)
			}
			reused, err := refineWith(p, inits[i], cfg, sc)
			if err != nil {
				t.Fatalf("reused run %d: %v", i, err)
			}
			if fresh.Cut != reused.Cut {
				t.Fatalf("policy %v problem %d: reused cut %d != fresh cut %d",
					policy, i, reused.Cut, fresh.Cut)
			}
			for v := range fresh.Assignment {
				if fresh.Assignment[v] != reused.Assignment[v] {
					t.Fatalf("policy %v problem %d: assignments diverge at vertex %d",
						policy, i, v)
				}
			}
		}
	}
}
