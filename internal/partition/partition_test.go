package partition_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

func TestMask(t *testing.T) {
	m := partition.AllParts(4)
	if m.Count() != 4 {
		t.Fatalf("AllParts(4).Count = %d", m.Count())
	}
	if !m.Contains(0) || !m.Contains(3) || m.Contains(4) {
		t.Errorf("AllParts(4) membership wrong")
	}
	s := partition.Single(2)
	if p, ok := s.OnlyPart(); !ok || p != 2 {
		t.Errorf("Single(2).OnlyPart = %d,%v", p, ok)
	}
	if _, ok := m.OnlyPart(); ok {
		t.Error("AllParts(4).OnlyPart should be false")
	}
	if got := partition.Single(0).With(2).Parts(4); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Parts = %v", got)
	}
	if partition.Single(1).Intersect(partition.Single(2)) != 0 {
		t.Error("disjoint masks should intersect to 0")
	}
	if partition.AllParts(64) != ^partition.Mask(0) {
		t.Error("AllParts(64) should be full mask")
	}
}

// grid builds a 2x n grid-like netlist: vertices 0..2n-1, rails of 2-pin nets.
func grid(n int) *hypergraph.Hypergraph {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 2*n; i++ {
		b.AddVertex(1)
	}
	for i := 0; i+1 < n; i++ {
		b.AddNet(i, i+1)     // top rail
		b.AddNet(n+i, n+i+1) // bottom rail
	}
	for i := 0; i < n; i++ {
		b.AddNet(i, n+i) // rungs
	}
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

func TestBalanceBisection(t *testing.T) {
	h := grid(10) // 20 unit vertices
	b := partition.NewBisection(h, 0.02)
	if b.NumParts() != 2 || b.NumResources() != 1 {
		t.Fatalf("dims: %d parts %d resources", b.NumParts(), b.NumResources())
	}
	// total=20, target=10, dev=0.4 -> Max=ceil(10.4)=11, Min=floor(9.6)=9.
	if b.Max[0][0] != 11 || b.Min[0][0] != 9 {
		t.Errorf("bounds = [%d,%d], want [9,11]", b.Min[0][0], b.Max[0][0])
	}
	if err := b.Validate(h); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !b.Admits([][]int64{{10}, {10}}) {
		t.Error("10/10 should be admitted")
	}
	if b.Admits([][]int64{{12}, {8}}) {
		t.Error("12/8 should be rejected")
	}
}

func TestBalanceValidateErrors(t *testing.T) {
	h := grid(5)
	bad := partition.Balance{Min: [][]int64{{5}}, Max: [][]int64{{4}}}
	if err := bad.Validate(h); err == nil {
		t.Error("want error for min > max")
	}
	tooSmall := partition.Balance{Min: [][]int64{{0}, {0}}, Max: [][]int64{{2}, {2}}}
	if err := tooSmall.Validate(h); err == nil {
		t.Error("want error for capacities below total")
	}
	empty := partition.Balance{}
	if err := empty.Validate(h); err == nil {
		t.Error("want error for empty balance")
	}
}

func TestProblemFixAndValidate(t *testing.T) {
	h := grid(10)
	p := partition.NewBipartition(h, 0.1)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !p.IsFree(3) {
		t.Error("vertex 3 should start free")
	}
	p.Fix(0, 0)
	p.Fix(19, 1)
	if part, ok := p.FixedPart(0); !ok || part != 0 {
		t.Errorf("FixedPart(0) = %d,%v", part, ok)
	}
	if p.IsFree(0) {
		t.Error("fixed vertex reported free")
	}
	if p.NumFixed() != 2 {
		t.Errorf("NumFixed = %d, want 2", p.NumFixed())
	}
	if f := p.FixedFraction(); f != 0.1 {
		t.Errorf("FixedFraction = %v, want 0.1", f)
	}
	p.Restrict(5, partition.Single(0).With(1))
	if _, ok := p.FixedPart(5); ok {
		t.Error("OR-region vertex should not be fixed")
	}
}

func TestProblemValidateErrors(t *testing.T) {
	h := grid(4)
	p := partition.NewBipartition(h, 0.1)
	p.Restrict(0, 0) // empty mask
	if err := p.Validate(); err == nil {
		t.Error("want error for empty mask")
	}
	p2 := partition.NewFree(h, 1, 0.1)
	if err := p2.Validate(); err == nil {
		t.Error("want error for k < 2")
	}
	p3 := &partition.Problem{H: h, K: 3, Balance: partition.NewUniform(h, 2, 0.1)}
	if err := p3.Validate(); err == nil {
		t.Error("want error for balance/k mismatch")
	}
}

func TestFeasible(t *testing.T) {
	h := grid(10)
	p := partition.NewBipartition(h, 0.1)
	p.Fix(0, 1)
	a := make(partition.Assignment, 20)
	for i := 10; i < 20; i++ {
		a[i] = 1
	}
	// Vertex 0 assigned to part 0 but fixed in 1.
	if err := p.Feasible(a); err == nil {
		t.Error("want fixed-vertex violation")
	}
	a[0] = 1
	a[10] = 0 // keep 10/10 split
	if err := p.Feasible(a); err != nil {
		t.Errorf("Feasible: %v", err)
	}
	// Unbalance it.
	for i := range a {
		a[i] = 1
	}
	if err := p.Feasible(a); err == nil {
		t.Error("want balance violation")
	}
	if err := p.Feasible(a[:5]); err == nil {
		t.Error("want length violation")
	}
}

func TestCutObjectives(t *testing.T) {
	h := grid(4) // 8 vertices; nets: 3 top rail, 3 bottom rail, 4 rungs
	a := make(partition.Assignment, 8)
	for i := 4; i < 8; i++ {
		a[i] = 1 // split top rail vs bottom rail: only rungs cut
	}
	if got := partition.Cut(h, a); got != 4 {
		t.Errorf("Cut = %d, want 4 (the rungs)", got)
	}
	if got := partition.CutNets(h, a); got != 4 {
		t.Errorf("CutNets = %d, want 4", got)
	}
	if got := partition.KMinus1(h, a); got != 4 {
		t.Errorf("KMinus1 = %d, want 4", got)
	}
	w := partition.PartWeights(h, a, 2)
	if w[0][0] != 4 || w[1][0] != 4 {
		t.Errorf("PartWeights = %v", w)
	}
}

func TestKMinus1EqualsCutForBipartition(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		h := grid(3 + int(seed%8))
		a := make(partition.Assignment, h.NumVertices())
		for i := range a {
			a[i] = int8(rng.IntN(2))
		}
		return partition.Cut(h, a) == partition.KMinus1(h, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomFeasible(t *testing.T) {
	h := grid(20)
	p := partition.NewBipartition(h, 0.02)
	p.Fix(0, 0)
	p.Fix(39, 1)
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		a, err := partition.RandomFeasible(p, rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Feasible(a); err != nil {
			t.Fatalf("trial %d: infeasible result: %v", trial, err)
		}
	}
}

func TestRandomFeasibleKWay(t *testing.T) {
	h := grid(30)
	p := partition.NewFree(h, 4, 0.05)
	rng := rand.New(rand.NewPCG(3, 4))
	a, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible: %v", err)
	}
	if err := p.Feasible(a); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

func TestRandomFeasibleOverconstrained(t *testing.T) {
	// All vertices fixed in part 0 but balance demands a split: infeasible.
	h := grid(5)
	p := partition.NewBipartition(h, 0.02)
	for v := 0; v < h.NumVertices(); v++ {
		p.Fix(v, 0)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	if _, err := partition.RandomFeasible(p, rng); err == nil {
		t.Error("want error for overconstrained instance")
	}
}

func TestAssignmentHelpers(t *testing.T) {
	a := make(partition.Assignment, 4)
	a[2] = 3
	b := a.Clone()
	b[0] = 1
	if a[0] != 0 || b[2] != 3 {
		t.Error("Clone not independent copy")
	}
}

func TestClusterTerminals(t *testing.T) {
	h := grid(10)
	p := partition.NewBipartition(h, 0.3)
	// Fix several vertices per side.
	for _, v := range []int{0, 1, 2} {
		p.Fix(v, 0)
	}
	for _, v := range []int{17, 18, 19} {
		p.Fix(v, 1)
	}
	res, err := partition.ClusterTerminals(p)
	if err != nil {
		t.Fatalf("ClusterTerminals: %v", err)
	}
	// 20 - 6 fixed + 2 merged terminals = 16 vertices.
	if got := res.Problem.H.NumVertices(); got != 16 {
		t.Fatalf("reduced vertices = %d, want 16", got)
	}
	if res.Problem.NumFixed() != 2 {
		t.Errorf("reduced NumFixed = %d, want 2", res.Problem.NumFixed())
	}
	for part := 0; part < 2; part++ {
		term := res.TerminalOf[part]
		if term < 0 {
			t.Fatalf("part %d has no terminal", part)
		}
		if got, ok := res.Problem.FixedPart(int(term)); !ok || got != part {
			t.Errorf("terminal %d fixed in %d,%v, want %d", term, got, ok, part)
		}
	}
	// Merged terminal weight = sum of members.
	if w := res.Problem.H.Weight(int(res.TerminalOf[0])); w != 3 {
		t.Errorf("terminal weight = %d, want 3", w)
	}
	// The reduced hypergraph itself, pinned: net order, pin order, weights
	// and pad flags.
	if got, want := res.Problem.H.Fingerprint(), uint64(0x926a4935ee9836dc); got != want {
		t.Errorf("reduced hypergraph fingerprint = %#x, want %#x", got, want)
	}
}

// TestClusterTerminalsPreservesCut is the equivalence property from the
// paper's conclusion: for any assignment consistent with the fixture, the
// reduced instance has the same cut.
func TestClusterTerminalsPreservesCut(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 11))
		h := grid(5 + int(seed%10))
		p := partition.NewBipartition(h, 0.5)
		nv := h.NumVertices()
		for v := 0; v < nv; v++ {
			if rng.IntN(3) == 0 {
				p.Fix(v, rng.IntN(2))
			}
		}
		res, err := partition.ClusterTerminals(p)
		if err != nil {
			return false
		}
		// Random assignment consistent with the fixture.
		a := make(partition.Assignment, nv)
		for v := 0; v < nv; v++ {
			if part, ok := p.FixedPart(v); ok {
				a[v] = int8(part)
			} else {
				a[v] = int8(rng.IntN(2))
			}
		}
		reduced, err := res.Reduce(a)
		if err != nil {
			return false
		}
		if partition.Cut(h, a) != partition.Cut(res.Problem.H, reduced) {
			return false
		}
		// Round trip.
		back := res.Project(reduced)
		for v := range a {
			if back[v] != a[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceConflict(t *testing.T) {
	h := grid(5)
	p := partition.NewBipartition(h, 0.5)
	p.Fix(0, 0)
	p.Fix(1, 0)
	res, err := partition.ClusterTerminals(p)
	if err != nil {
		t.Fatalf("ClusterTerminals: %v", err)
	}
	a := make(partition.Assignment, h.NumVertices())
	a[1] = 1 // conflicts with vertex 0 (same cluster, different part)
	if _, err := res.Reduce(a); err == nil {
		t.Error("want conflict error")
	}
}

func TestSOED(t *testing.T) {
	h := grid(4)
	a := make(partition.Assignment, 8)
	for i := 4; i < 8; i++ {
		a[i] = 1
	}
	// 4 cut rungs, each spanning 2 parts: SOED = 8; uncut rails contribute 0.
	if got := partition.SOED(h, a); got != 8 {
		t.Errorf("SOED = %d, want 8", got)
	}
	// Identity SOED = KMinus1 + Cut.
	if partition.SOED(h, a) != partition.KMinus1(h, a)+partition.Cut(h, a) {
		t.Error("SOED identity violated")
	}
}

func TestSOEDIdentityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 91))
		h := grid(3 + int(seed%8))
		a := make(partition.Assignment, h.NumVertices())
		for i := range a {
			a[i] = int8(rng.IntN(4))
		}
		return partition.SOED(h, a) == partition.KMinus1(h, a)+partition.Cut(h, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMovableCountCaching(t *testing.T) {
	h := grid(6)
	p := partition.NewBipartition(h, 0.1)
	nv := h.NumVertices()
	if got := p.MovableCount(); got != nv {
		t.Fatalf("MovableCount = %d, want %d", got, nv)
	}
	// Fix must invalidate the cache.
	p.Fix(0, 0)
	p.Fix(1, 1)
	if got := p.MovableCount(); got != nv-2 {
		t.Fatalf("MovableCount after Fix = %d, want %d", got, nv-2)
	}
	// Restrict to a single part also fixes the vertex.
	p.Restrict(2, partition.Single(0))
	if got := p.MovableCount(); got != nv-3 {
		t.Fatalf("MovableCount after Restrict = %d, want %d", got, nv-3)
	}
	// A non-singleton restriction keeps the vertex movable.
	p.Restrict(3, partition.AllParts(2))
	if got := p.MovableCount(); got != nv-3 {
		t.Fatalf("MovableCount after free Restrict = %d, want %d", got, nv-3)
	}
	// The cached value must agree with a fresh recount.
	n := 0
	for v := 0; v < nv; v++ {
		if _, fixed := p.FixedPart(v); !fixed {
			n++
		}
	}
	if got := p.MovableCount(); got != n {
		t.Fatalf("cached MovableCount = %d, recount = %d", got, n)
	}
}

func TestMovableCountConcurrent(t *testing.T) {
	h := grid(50)
	p := partition.NewBipartition(h, 0.1)
	p.Fix(0, 0)
	want := h.NumVertices() - 1
	done := make(chan int, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- p.MovableCount() }()
	}
	for g := 0; g < 8; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent MovableCount = %d, want %d", got, want)
		}
	}
}
