package hypergraph_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/hypergraph"
)

// benchInput builds a mid-size random hypergraph once per benchmark.
func benchInput(b testing.TB, nv, ne int) *hypergraph.Hypergraph {
	b.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	bl := hypergraph.NewBuilder(1)
	for i := 0; i < nv; i++ {
		bl.AddVertex(int64(1 + rng.IntN(8)))
	}
	for e := 0; e < ne; e++ {
		sz := 2 + rng.IntN(4)
		pins := make([]int, sz)
		for i := range pins {
			pins[i] = rng.IntN(nv)
		}
		bl.DedupPins = true
		bl.DropSingletons = true
		bl.AddNet(pins...)
	}
	return bl.MustBuild()
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	const nv, ne = 10000, 12000
	pins := make([][]int, ne)
	for e := range pins {
		sz := 2 + rng.IntN(4)
		pins[e] = make([]int, sz)
		for i := range pins[e] {
			pins[e][i] = rng.IntN(nv)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := hypergraph.NewBuilder(1)
		bl.DedupPins = true
		bl.DropSingletons = true
		for v := 0; v < nv; v++ {
			bl.AddVertex(1)
		}
		for _, p := range pins {
			bl.AddNet(p...)
		}
		if _, err := bl.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClustering pairs vertices into a half-size clustering of h.
func benchClustering(h *hypergraph.Hypergraph) ([]int32, int) {
	rng := rand.New(rand.NewPCG(8, 8))
	nc := h.NumVertices() / 2
	clusterOf := make([]int32, h.NumVertices())
	for i := 0; i < nc; i++ {
		clusterOf[i] = int32(i)
	}
	for i := nc; i < h.NumVertices(); i++ {
		clusterOf[i] = int32(rng.IntN(nc))
	}
	return clusterOf, nc
}

// BenchmarkContract times the allocation-free scratch path against the
// frozen map-based reference; run with -benchmem to see the allocation gap.
func BenchmarkContract(b *testing.B) {
	h := benchInput(b, 10000, 12000)
	clusterOf, nc := benchClustering(h)
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hypergraph.Contract(h, clusterOf, nc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := hypergraph.ContractReference(h, clusterOf, nc, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestContractAllocReduction holds the scratch path's headline on the
// BenchmarkContract input: allocs/op at least 5x below the reference's.
func TestContractAllocReduction(t *testing.T) {
	h := benchInput(t, 10000, 12000)
	clusterOf, nc := benchClustering(h)
	newAllocs := testing.AllocsPerRun(20, func() {
		if _, err := hypergraph.Contract(h, clusterOf, nc); err != nil {
			t.Fatal(err)
		}
	})
	refAllocs := testing.AllocsPerRun(20, func() {
		if _, _, err := hypergraph.ContractReference(h, clusterOf, nc, true); err != nil {
			t.Fatal(err)
		}
	})
	if refAllocs < 5*newAllocs {
		t.Errorf("Contract allocs/op %.0f not reduced >= 5x vs reference %.0f", newAllocs, refAllocs)
	}
}

func BenchmarkValidate(b *testing.B) {
	h := benchInput(b, 10000, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInducedSubgraph(b *testing.B) {
	h := benchInput(b, 10000, 12000)
	keep := make([]bool, h.NumVertices())
	for i := range keep {
		keep[i] = i%2 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hypergraph.InducedSubgraph(h, keep); err != nil {
			b.Fatal(err)
		}
	}
}
