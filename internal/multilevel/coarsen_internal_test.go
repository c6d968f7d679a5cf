package multilevel

import (
	"math/rand/v2"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

func coarsenFixture(t *testing.T) *partition.Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 5))
	b := hypergraph.NewBuilder(1)
	const nv = 200
	for i := 0; i < nv; i++ {
		b.AddVertex(int64(1 + rng.IntN(3)))
	}
	for e := 0; e < 2*nv; e++ {
		sz := 2 + rng.IntN(3)
		b.AddNet(rng.Perm(nv)[:sz]...)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return partition.NewBipartition(h, 0.1)
}

func TestMatchLevelRespectsMasksAndWeights(t *testing.T) {
	p := coarsenFixture(t)
	rng := rand.New(rand.NewPCG(6, 6))
	for v := 0; v < p.H.NumVertices(); v += 3 {
		p.Fix(v, (v/3)%2)
	}
	const maxW = 4
	coarse, clusterOf, ok := matchLevel(p, maxW, 2, rng)
	if !ok {
		t.Fatal("matching failed to shrink")
	}
	// Clusters never mix vertices fixed in different parts, never exceed the
	// weight cap, and masks intersect member masks.
	members := map[int32][]int{}
	for v, c := range clusterOf {
		members[c] = append(members[c], v)
	}
	for c, vs := range members {
		var w int64
		mask := partition.AllParts(2)
		for _, v := range vs {
			w += p.H.Weight(v)
			mask = mask.Intersect(p.MaskOf(v))
		}
		if len(vs) > 1 && w > maxW {
			t.Fatalf("cluster %d weight %d exceeds cap %d", c, w, maxW)
		}
		if mask == 0 {
			t.Fatalf("cluster %d mixes incompatible masks", c)
		}
		if coarse.MaskOf(int(c)) != mask {
			t.Fatalf("cluster %d mask %b, want %b", c, coarse.MaskOf(int(c)), mask)
		}
		if coarse.H.Weight(int(c)) != w {
			t.Fatalf("cluster %d weight %d, want %d", c, coarse.H.Weight(int(c)), w)
		}
	}
}
