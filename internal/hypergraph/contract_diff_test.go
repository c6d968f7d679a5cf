package hypergraph_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/hypergraph"
)

// sameHypergraph asserts a and b are bit-identical through the public API:
// same vertex/net counts, weights, pads, pin lists (order included) and
// vertex->net CSR.
func sameHypergraph(t *testing.T, a, b *hypergraph.Hypergraph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumNets() != b.NumNets() || a.NumPins() != b.NumPins() {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	if a.NumResources() != b.NumResources() {
		t.Fatalf("resource count mismatch: %d vs %d", a.NumResources(), b.NumResources())
	}
	for v := 0; v < a.NumVertices(); v++ {
		for r := 0; r < a.NumResources(); r++ {
			if a.WeightIn(v, r) != b.WeightIn(v, r) {
				t.Fatalf("vertex %d weight mismatch in resource %d: %d vs %d", v, r, a.WeightIn(v, r), b.WeightIn(v, r))
			}
		}
		if a.IsPad(v) != b.IsPad(v) {
			t.Fatalf("vertex %d pad mismatch", v)
		}
		an, bn := a.NetsOf(v), b.NetsOf(v)
		if len(an) != len(bn) {
			t.Fatalf("vertex %d degree mismatch: %d vs %d", v, len(an), len(bn))
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("vertex %d nets mismatch at %d: %d vs %d", v, i, an[i], bn[i])
			}
		}
	}
	for e := 0; e < a.NumNets(); e++ {
		if a.NetWeight(e) != b.NetWeight(e) {
			t.Fatalf("net %d weight mismatch: %d vs %d", e, a.NetWeight(e), b.NetWeight(e))
		}
		ap, bp := a.Pins(e), b.Pins(e)
		if len(ap) != len(bp) {
			t.Fatalf("net %d size mismatch: %d vs %d", e, len(ap), len(bp))
		}
		for i := range ap {
			if ap[i] != bp[i] {
				t.Fatalf("net %d pins mismatch at %d: %d vs %d", e, i, ap[i], bp[i])
			}
		}
	}
}

// TestContractMatchesReference drives the allocation-free Contract and the
// frozen ContractReference (parallel-net merging on) over random hypergraphs
// and clusterings (pads, multi-resource weights, repeated calls through the
// pooled scratch) and requires bit-identical output.
func TestContractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	for trial := 0; trial < 40; trial++ {
		nv := 3 + rng.IntN(120)
		ne := 1 + rng.IntN(240)
		nr := 1 + rng.IntN(2)
		bl := hypergraph.NewBuilder(nr)
		bl.DedupPins = true
		bl.DropSingletons = true
		for v := 0; v < nv; v++ {
			if rng.IntN(8) == 0 {
				bl.AddPad("")
			} else {
				ws := make([]int64, nr)
				for r := range ws {
					ws[r] = int64(1 + rng.IntN(9))
				}
				bl.AddVertex(ws...)
			}
		}
		for e := 0; e < ne; e++ {
			sz := 2 + rng.IntN(5)
			pins := make([]int, sz)
			for i := range pins {
				pins[i] = rng.IntN(nv)
			}
			bl.AddWeightedNet(int64(1+rng.IntN(4)), pins...)
		}
		h, err := bl.Build()
		if err != nil {
			t.Fatal(err)
		}
		nc := 1 + rng.IntN(nv)
		clusterOf := make([]int32, nv)
		for v := range clusterOf {
			clusterOf[v] = int32(rng.IntN(nc))
		}
		// Ensure every cluster has a member.
		for c := 0; c < nc && c < nv; c++ {
			clusterOf[c] = int32(c)
		}
		want, _, wantErr := hypergraph.ContractReference(h, clusterOf, nc, true)
		got, gotErr := hypergraph.Contract(h, clusterOf, nc)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		sameHypergraph(t, want, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: coarse hypergraph invalid: %v", trial, err)
		}
	}
}

// TestContractErrorsMatchReference checks the rewritten path rejects the same
// malformed inputs as the reference.
func TestContractErrorsMatchReference(t *testing.T) {
	bl := hypergraph.NewBuilder(1)
	for i := 0; i < 3; i++ {
		bl.AddVertex(1)
	}
	bl.AddNet(0, 1, 2)
	h := bl.MustBuild()
	cases := []struct {
		clusterOf []int32
		nc        int
	}{
		{[]int32{0, 0}, 1},    // wrong length
		{[]int32{0, 0, 5}, 2}, // out of range
		{[]int32{0, 0, 0}, 2}, // empty cluster
	}
	for i, c := range cases {
		_, _, refErr := hypergraph.ContractReference(h, c.clusterOf, c.nc, true)
		_, newErr := hypergraph.Contract(h, c.clusterOf, c.nc)
		if (refErr == nil) != (newErr == nil) {
			t.Fatalf("case %d: error mismatch: reference %v, new %v", i, refErr, newErr)
		}
		if refErr == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}
