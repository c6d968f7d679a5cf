package hypergraph_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/hypergraph"
)

// buildTriangle returns a tiny 3-vertex, 3-net hypergraph used across tests:
// nets {0,1}, {1,2}, {0,1,2} with vertex weights 1, 2, 3.
func buildTriangle(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(1)
	v0 := b.AddVertex(1)
	v1 := b.AddVertex(2)
	v2 := b.AddVertex(3)
	b.AddNet(v0, v1)
	b.AddNet(v1, v2)
	b.AddNet(v0, v1, v2)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return h
}

func TestBuilderBasic(t *testing.T) {
	h := buildTriangle(t)
	if h.NumVertices() != 3 || h.NumNets() != 3 || h.NumPins() != 7 {
		t.Fatalf("got v=%d e=%d pins=%d, want 3/3/7", h.NumVertices(), h.NumNets(), h.NumPins())
	}
	if h.TotalWeight() != 6 {
		t.Errorf("TotalWeight = %d, want 6", h.TotalWeight())
	}
	if h.Weight(2) != 3 {
		t.Errorf("Weight(2) = %d, want 3", h.Weight(2))
	}
	if got := len(h.NetsOf(1)); got != 3 {
		t.Errorf("len(NetsOf(1)) = %d, want 3", got)
	}
	if h.NetSize(2) != 3 {
		t.Errorf("NetSize(2) = %d, want 3", h.NetSize(2))
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderEmpty(t *testing.T) {
	h, err := hypergraph.NewBuilder(1).Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumVertices() != 0 || h.NumNets() != 0 {
		t.Fatalf("empty build got v=%d e=%d", h.NumVertices(), h.NumNets())
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderZeroValue(t *testing.T) {
	var b hypergraph.Builder
	v0 := b.AddVertex(5)
	v1 := b.AddVertex(7)
	b.AddNet(v0, v1)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumResources() != 1 || h.TotalWeight() != 12 {
		t.Fatalf("zero-value builder: resources=%d total=%d", h.NumResources(), h.TotalWeight())
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("unknown vertex", func(t *testing.T) {
		b := hypergraph.NewBuilder(1)
		b.AddVertex(1)
		b.AddNet(0, 5)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for pin on unknown vertex")
		}
	})
	t.Run("duplicate pin", func(t *testing.T) {
		b := hypergraph.NewBuilder(1)
		v := b.AddVertex(1)
		w := b.AddVertex(1)
		b.AddNet(v, w, v)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for duplicate pin")
		}
	})
	t.Run("singleton net", func(t *testing.T) {
		b := hypergraph.NewBuilder(1)
		v := b.AddVertex(1)
		b.AddVertex(1)
		b.AddNet(v)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for singleton net")
		}
	})
	t.Run("negative weight", func(t *testing.T) {
		b := hypergraph.NewBuilder(1)
		b.AddVertex(-1)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for negative vertex weight")
		}
	})
	t.Run("negative net weight", func(t *testing.T) {
		b := hypergraph.NewBuilder(1)
		v := b.AddVertex(1)
		w := b.AddVertex(1)
		b.AddWeightedNet(-2, v, w)
		if _, err := b.Build(); err == nil {
			t.Fatal("want error for negative net weight")
		}
	})
}

func TestBuilderDedupAndDrop(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	b.DedupPins = true
	b.DropSingletons = true
	v := b.AddVertex(1)
	w := b.AddVertex(1)
	b.AddNet(v, w, v) // dedups to {v,w}
	b.AddNet(v, v)    // dedups to {v}, dropped
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumNets() != 1 {
		t.Fatalf("NumNets = %d, want 1", h.NumNets())
	}
	if h.NetSize(0) != 2 {
		t.Fatalf("NetSize(0) = %d, want 2", h.NetSize(0))
	}
}

func TestMultiResource(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	v := b.AddVertex(10, 2, 5)
	w := b.AddVertex(20) // missing resources default to 0
	b.AddNet(v, w)
	h, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if h.NumResources() != 3 {
		t.Fatalf("NumResources = %d, want 3", h.NumResources())
	}
	if h.WeightIn(v, 2) != 5 || h.WeightIn(w, 1) != 0 {
		t.Errorf("WeightIn wrong: %d %d", h.WeightIn(v, 2), h.WeightIn(w, 1))
	}
	if h.TotalWeightIn(0) != 30 || h.TotalWeightIn(1) != 2 || h.TotalWeightIn(2) != 5 {
		t.Errorf("totals: %d %d %d", h.TotalWeightIn(0), h.TotalWeightIn(1), h.TotalWeightIn(2))
	}
}

func TestPadsAndNames(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	c := b.AddCell("a12", 4)
	p := b.AddPad("pad3")
	b.AddNet(c, p)
	h := b.MustBuild()
	if !h.IsPad(p) || h.IsPad(c) {
		t.Errorf("pad flags wrong")
	}
	if h.NumPads() != 1 {
		t.Errorf("NumPads = %d, want 1", h.NumPads())
	}
	if h.VertexName(c) != "a12" || h.VertexName(p) != "pad3" {
		t.Errorf("names wrong: %q %q", h.VertexName(c), h.VertexName(p))
	}
	if h.Weight(p) != 0 {
		t.Errorf("pad weight = %d, want 0", h.Weight(p))
	}
}

func TestCSRSymmetry(t *testing.T) {
	h := buildTriangle(t)
	// Every net in NetsOf(v) must contain v in its pins and vice versa.
	for v := 0; v < h.NumVertices(); v++ {
		for _, e := range h.NetsOf(v) {
			found := false
			for _, u := range h.Pins(int(e)) {
				if int(u) == v {
					found = true
				}
			}
			if !found {
				t.Errorf("net %d in NetsOf(%d) but %d not in Pins(%d)", e, v, v, e)
			}
		}
	}
}

// randomHypergraph builds a random, always-valid hypergraph from a seed.
func randomHypergraph(seed uint64, maxV, maxE int) *hypergraph.Hypergraph {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
	nv := 2 + rng.IntN(maxV-1)
	b := hypergraph.NewBuilder(1)
	for i := 0; i < nv; i++ {
		b.AddVertex(int64(1 + rng.IntN(20)))
	}
	ne := rng.IntN(maxE + 1)
	for e := 0; e < ne; e++ {
		sz := 2 + rng.IntN(min(nv, 6)-1)
		perm := rng.Perm(nv)[:sz]
		b.AddWeightedNet(int64(1+rng.IntN(3)), perm...)
	}
	return b.MustBuild()
}

func TestRandomHypergraphsValidate(t *testing.T) {
	f := func(seed uint64) bool {
		h := randomHypergraph(seed, 40, 60)
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestContractBasic(t *testing.T) {
	h := buildTriangle(t)
	// Merge v0 and v1 into cluster 0, keep v2 as cluster 1.
	coarse, err := hypergraph.Contract(h, []int32{0, 0, 1}, 2)
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	if coarse.NumVertices() != 2 {
		t.Fatalf("coarse vertices = %d, want 2", coarse.NumVertices())
	}
	// Net {0,1} collapses to a single cluster and is dropped; nets {1,2} and
	// {0,1,2} both become {c0,c1} and merge into one net.
	if coarse.NumNets() != 1 {
		t.Errorf("coarse nets = %d, want 1", coarse.NumNets())
	}
	if coarse.Weight(0) != 3 || coarse.Weight(1) != 3 {
		t.Errorf("cluster weights = %d,%d want 3,3", coarse.Weight(0), coarse.Weight(1))
	}
	if coarse.TotalWeight() != h.TotalWeight() {
		t.Errorf("total weight changed: %d != %d", coarse.TotalWeight(), h.TotalWeight())
	}
	if err := coarse.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestContractMergeParallelNets(t *testing.T) {
	h := buildTriangle(t)
	coarse, err := hypergraph.Contract(h, []int32{0, 0, 1}, 2)
	if err != nil {
		t.Fatalf("Contract: %v", err)
	}
	if coarse.NumNets() != 1 {
		t.Fatalf("coarse nets = %d, want 1 (parallel nets merged)", coarse.NumNets())
	}
	if coarse.NetWeight(0) != 2 {
		t.Errorf("merged net weight = %d, want 2", coarse.NetWeight(0))
	}
}

func TestContractErrors(t *testing.T) {
	h := buildTriangle(t)
	if _, err := hypergraph.Contract(h, []int32{0, 0}, 1); err == nil {
		t.Error("want error for short clusterOf")
	}
	if _, err := hypergraph.Contract(h, []int32{0, 0, 5}, 2); err == nil {
		t.Error("want error for out-of-range cluster")
	}
	if _, err := hypergraph.Contract(h, []int32{0, 0, 0}, 2); err == nil {
		t.Error("want error for empty cluster")
	}
}

func TestContractPreservesWeightProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h := randomHypergraph(seed, 30, 40)
		rng := rand.New(rand.NewPCG(seed, 1))
		nc := 1 + rng.IntN(h.NumVertices())
		clusterOf := make([]int32, h.NumVertices())
		// Ensure every cluster id is used at least once.
		for i := 0; i < nc; i++ {
			clusterOf[i] = int32(i)
		}
		for i := nc; i < h.NumVertices(); i++ {
			clusterOf[i] = int32(rng.IntN(nc))
		}
		coarse, err := hypergraph.Contract(h, clusterOf, nc)
		if err != nil {
			return false
		}
		if coarse.TotalWeight() != h.TotalWeight() {
			return false
		}
		// Pin count never grows under contraction.
		if coarse.NumPins() > h.NumPins() {
			return false
		}
		return coarse.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	h := buildTriangle(t)
	res, err := hypergraph.InducedSubgraph(h, []bool{true, true, false})
	if err != nil {
		t.Fatalf("InducedSubgraph: %v", err)
	}
	if res.Sub.NumVertices() != 2 {
		t.Fatalf("sub vertices = %d, want 2", res.Sub.NumVertices())
	}
	// Net {0,1} survives; {1,2} restricted to {1} drops; {0,1,2} restricted
	// to {0,1} survives as a clipped net.
	if res.Sub.NumNets() != 2 {
		t.Fatalf("sub nets = %d, want 2", res.Sub.NumNets())
	}
	if len(res.ClippedNets) != 2 {
		// Nets 1 and 2 both touch excluded vertex 2 while retaining a kept pin.
		t.Errorf("clipped nets = %v, want 2 entries", res.ClippedNets)
	}
	if res.SubOf[2] != -1 {
		t.Errorf("SubOf[2] = %d, want -1", res.SubOf[2])
	}
	if int(res.VertexOf[res.SubOf[1]]) != 1 {
		t.Errorf("vertex mapping not inverse")
	}
	if err := res.Sub.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestInducedSubgraphProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h := randomHypergraph(seed, 30, 40)
		rng := rand.New(rand.NewPCG(seed, 2))
		keep := make([]bool, h.NumVertices())
		for i := range keep {
			keep[i] = rng.IntN(2) == 0
		}
		res, err := hypergraph.InducedSubgraph(h, keep)
		if err != nil {
			return false
		}
		// Mappings are mutually inverse, weights carry over.
		for sv, pv := range res.VertexOf {
			if int(res.SubOf[pv]) != sv {
				return false
			}
			if res.Sub.Weight(sv) != h.Weight(int(pv)) {
				return false
			}
		}
		return res.Sub.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	h := buildTriangle(t)
	s := hypergraph.ComputeStats(h)
	if s.Vertices != 3 || s.Nets != 3 || s.Pins != 7 {
		t.Fatalf("stats basic: %+v", s)
	}
	if s.MaxNetSize != 3 {
		t.Errorf("MaxNetSize = %d, want 3", s.MaxNetSize)
	}
	if s.NetSizeCounts[2] != 2 || s.NetSizeCounts[3] != 1 {
		t.Errorf("NetSizeCounts = %v", s.NetSizeCounts)
	}
	if s.MaxWeight != 3 || s.TotalWeight != 6 {
		t.Errorf("weights: %+v", s)
	}
	if got := s.MaxWeightPct; got < 49.9 || got > 50.1 {
		t.Errorf("MaxWeightPct = %v, want 50", got)
	}
}

func TestStringAndMaxVertexWeight(t *testing.T) {
	h := buildTriangle(t)
	if h.String() == "" {
		t.Error("String empty")
	}
	if h.MaxVertexWeight() != 3 {
		t.Errorf("MaxVertexWeight = %d", h.MaxVertexWeight())
	}
}

func TestNames(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	v := b.AddCell("alu7", 1)
	w := b.AddVertex(1)
	b.AddNet(v, w)
	h := b.MustBuild()
	if h.VertexName(v) != "alu7" {
		t.Errorf("VertexName = %q", h.VertexName(v))
	}
	if h.VertexName(w) != "v1" {
		t.Errorf("default VertexName = %q", h.VertexName(w))
	}
	// Unnamed hypergraphs generate names.
	b2 := hypergraph.NewBuilder(1)
	a := b2.AddVertex(1)
	c := b2.AddVertex(1)
	b2.AddNet(a, c)
	h2 := b2.MustBuild()
	if h2.VertexName(a) != "v0" {
		t.Errorf("generated name: %q", h2.VertexName(a))
	}
}

func TestContractKeepsPads(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	c := b.AddCell("c", 3)
	p1 := b.AddPad("p1")
	p2 := b.AddPad("p2")
	b.AddNet(c, p1)
	b.AddNet(c, p2)
	h := b.MustBuild()
	// Merge the two pads; keep the cell separate.
	coarse, err := hypergraph.Contract(h, []int32{0, 1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.IsPad(0) {
		t.Error("cell cluster marked pad")
	}
	if !coarse.IsPad(1) {
		t.Error("all-pad cluster lost pad flag")
	}
	// Mixed cluster is not a pad.
	coarse2, err := hypergraph.Contract(h, []int32{0, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if coarse2.IsPad(0) {
		t.Error("mixed cluster marked pad")
	}
}
