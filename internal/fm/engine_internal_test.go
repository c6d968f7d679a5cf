package fm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// mustBuild is b.Build for test inputs that are correct by construction.
func mustBuild(b *hypergraph.Builder) *hypergraph.Hypergraph {
	h, err := b.Build()
	if err != nil {
		panic(err)
	}
	return h
}

// buildEngineProblem makes a random bipartition problem with a feasible
// initial assignment.
func buildEngineProblem(seed uint64, nv int) (*partition.Problem, partition.Assignment, bool) {
	rng := rand.New(rand.NewPCG(seed, 123))
	b := hypergraph.NewBuilder(1)
	for i := 0; i < nv; i++ {
		b.AddVertex(int64(1 + rng.IntN(4)))
	}
	for e := 0; e < 2*nv; e++ {
		sz := 2 + rng.IntN(3)
		b.AddNet(rng.Perm(nv)[:sz]...)
	}
	p := partition.NewBipartition(mustBuild(b), 0.1)
	for v := 0; v < nv; v++ {
		if rng.IntN(5) == 0 {
			p.Fix(v, rng.IntN(2))
		}
	}
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, nil, false
	}
	return p, initial, true
}

// TestKernelInvariants drives the kernel at k=2 and checks that its
// incremental bookkeeping (pin counts, part weights) matches a from-scratch
// recomputation after the run.
func TestKernelInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		p, initial, ok := buildEngineProblem(seed, 40)
		if !ok {
			return true
		}
		e := newKernel(mustLevel(p, initial), Config{Policy: LIFO})
		e.run()
		h := p.H
		k := e.k
		// Recompute pin counts from the final assignment.
		for en := 0; en < h.NumNets(); en++ {
			want := make([]int32, k)
			for _, v := range h.Pins(en) {
				want[e.a[v]]++
			}
			for q := 0; q < k; q++ {
				if e.pinCount[en*k+q] != want[q] {
					return false
				}
			}
		}
		// Recompute part weights.
		wantW := make([]int64, k)
		for v := 0; v < h.NumVertices(); v++ {
			wantW[e.a[v]] += h.Weight(v)
		}
		for q := 0; q < k; q++ {
			if e.weight[q][0] != wantW[q] {
				return false
			}
		}
		// The running objective is the final assignment's.
		return e.lv.km1 == partition.Cut(h, e.a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelGainsFreshEachPass verifies initPass recomputes gains that match
// the textbook FS-TE definition at k=2, and that a single applied move keeps
// every unlocked gain consistent with a from-scratch recomputation.
func TestKernelGainsFreshEachPass(t *testing.T) {
	p, initial, ok := buildEngineProblem(7, 30)
	if !ok {
		t.Skip("infeasible draw")
	}
	e := newKernel(mustLevel(p, initial), Config{Policy: LIFO})
	e.initPass()
	h := p.H
	k := e.k
	for v := 0; v < h.NumVertices(); v++ {
		if !e.movable[v] {
			continue
		}
		s := int(e.a[v])
		var want int64
		for _, en := range h.NetsOf(v) {
			w := h.NetWeight(int(en))
			if e.pinCount[int(en)*k+s] == 1 {
				want += w
			}
			if e.pinCount[int(en)*k+(1-s)] == 0 {
				want -= w
			}
		}
		if got := e.gk[2*(v*k+(1-s))]; got != want {
			t.Fatalf("vertex %d gain %d, want %d", v, got, want)
		}
	}
	// Apply the best feasible move and re-verify every unlocked gain.
	mid := e.selectMove()
	if mid < 0 {
		t.Skip("no feasible move")
	}
	e.applyMove(mid/int32(k), int(mid)%k)
	for u := 0; u < h.NumVertices(); u++ {
		if !e.movable[u] || e.locked[u] {
			continue
		}
		s := int(e.a[u])
		var want int64
		for _, en := range h.NetsOf(u) {
			w := h.NetWeight(int(en))
			if e.pinCount[int(en)*k+s] == 1 {
				want += w
			}
			if e.pinCount[int(en)*k+(1-s)] == 0 {
				want -= w
			}
		}
		if got := e.gk[2*(u*k+(1-s))]; got != want {
			t.Fatalf("after move: vertex %d gain %d, want %d", u, got, want)
		}
	}
}

// TestKWayKernelGainConsistency checks the kernel's incremental gain updates
// at k=3 against from-scratch recomputation after a few applied moves.
func TestKWayKernelGainConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	b := hypergraph.NewBuilder(1)
	const nv = 36
	for i := 0; i < nv; i++ {
		b.AddVertex(1)
	}
	for e := 0; e < 2*nv; e++ {
		sz := 2 + rng.IntN(3)
		b.AddNet(rng.Perm(nv)[:sz]...)
	}
	p := partition.NewFree(mustBuild(b), 3, 0.2)
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := newKernel(mustLevel(p, initial), Config{Policy: LIFO})
	e.initPass()
	for step := 0; step < 5; step++ {
		mid := e.selectMove()
		if mid < 0 {
			break
		}
		e.applyMove(mid/int32(e.k), int(mid)%e.k)
		for u := int32(0); int(u) < nv; u++ {
			if e.locked[u] || !e.movable[u] {
				continue
			}
			for t2 := 0; t2 < e.k; t2++ {
				if t2 == int(e.a[u]) {
					continue
				}
				if got, want := e.gk[2*(int(u)*e.k+t2)], e.moveGain(u, t2); got != want {
					t.Fatalf("step %d: move (%d->%d) gain %d, want %d", step, u, t2, got, want)
				}
			}
		}
	}
}

// mustLevel builds the level state of a feasible assignment.
func mustLevel(p *partition.Problem, a partition.Assignment) *Level {
	l, err := NewLevel(p, a, Config{}, &Scratch{})
	if err != nil {
		panic(err)
	}
	return l
}

// moveGain computes from scratch the (λ-1) connectivity reduction of moving
// v from its current part to part t, one target per scan of v's nets. It is
// the per-target oracle cutModel.gainRow must agree with; the frozen
// localized engine (localized_reference_test.go) prices with it too.
func (m *cutModel) moveGain(v int32, t int) int64 {
	h := m.h
	k := m.k
	from := int(m.a[v])
	var g int64
	for _, en := range h.NetsOf(int(v)) {
		if int(m.fixedCover[en]) == k {
			continue
		}
		base := int(en) * k
		if m.pinCount[base+from] == 1 {
			g += h.NetWeight(int(en))
		}
		if m.pinCount[base+t] == 0 {
			g -= h.NetWeight(int(en))
		}
	}
	return g
}
