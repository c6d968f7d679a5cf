package partition_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// TestSOEDIdentity enforces the identity the SOED doc comment promises,
// SOED = KMinus1 + Cut, on randomized hypergraphs and assignments: a cut
// net spanning λ parts contributes λ·w to SOED, (λ-1)·w to KMinus1 and w to
// Cut, while an uncut net contributes nothing to any of the three.
func TestSOEDIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x50ed))
		nv := 4 + rng.IntN(60)
		b := hypergraph.NewBuilder(1)
		for v := 0; v < nv; v++ {
			b.AddVertex(1)
		}
		ne := 1 + rng.IntN(3*nv)
		for e := 0; e < ne; e++ {
			sz := 2 + rng.IntN(6)
			if sz > nv {
				sz = nv
			}
			b.AddWeightedNet(int64(1+rng.IntN(5)), rng.Perm(nv)[:sz]...)
		}
		h, err := b.Build()
		if err != nil || h.NumNets() == 0 {
			return true
		}
		k := 2 + rng.IntN(7)
		a := make(partition.Assignment, nv)
		for v := range a {
			a[v] = int8(rng.IntN(k))
		}
		cut := partition.Cut(h, a)
		km1 := partition.KMinus1(h, a)
		soed := partition.SOED(h, a)
		if soed != km1+cut {
			t.Logf("seed %d: SOED %d != KMinus1 %d + Cut %d", seed, soed, km1, cut)
			return false
		}
		// k = 2 collapses the hierarchy: every cut net spans exactly 2 parts.
		if k == 2 && (km1 != cut || soed != 2*cut) {
			t.Logf("seed %d: k=2 degenerate case broken: cut %d km1 %d soed %d", seed, cut, km1, soed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
