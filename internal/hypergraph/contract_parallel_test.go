package hypergraph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// identicalHypergraph asserts bit-identity down to the internal CSR arrays —
// stronger than the public-API comparison of the serial differential test,
// because the parallel path builds netPins and the vertex CSR out of order
// and must still land every word in exactly the serial position.
func identicalHypergraph(t *testing.T, want, got *Hypergraph) {
	t.Helper()
	if want.numVerts != got.numVerts || want.numNets != got.numNets {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", want.numVerts, want.numNets, got.numVerts, got.numNets)
	}
	if !slices.Equal(want.netOffsets, got.netOffsets) {
		t.Fatal("netOffsets differ")
	}
	if !slices.Equal(want.netPins, got.netPins) {
		t.Fatal("netPins differ")
	}
	if !slices.Equal(want.netWeights, got.netWeights) {
		t.Fatal("netWeights differ")
	}
	if !slices.Equal(want.vertOffsets, got.vertOffsets) {
		t.Fatal("vertOffsets differ")
	}
	if !slices.Equal(want.vertNets, got.vertNets) {
		t.Fatal("vertNets differ")
	}
	if !slices.Equal(want.isPad, got.isPad) {
		t.Fatal("isPad differs")
	}
	if !slices.Equal(want.totalWeight, got.totalWeight) {
		t.Fatal("totalWeight differs")
	}
	if len(want.weights) != len(got.weights) {
		t.Fatalf("resource count mismatch: %d vs %d", len(want.weights), len(got.weights))
	}
	for r := range want.weights {
		if !slices.Equal(want.weights[r], got.weights[r]) {
			t.Fatalf("weights differ in resource %d", r)
		}
	}
}

// randomContractTrial builds one random hypergraph and clustering with the
// same shape distribution as TestContractMatchesReference.
func randomContractTrial(rng *rand.Rand) (*Hypergraph, []int32, int) {
	nv := 3 + rng.IntN(120)
	ne := 1 + rng.IntN(240)
	nr := 1 + rng.IntN(2)
	bl := NewBuilder(nr)
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
	h := bl.MustBuild()
	nc := 1 + rng.IntN(nv)
	clusterOf := make([]int32, nv)
	for v := range clusterOf {
		clusterOf[v] = int32(rng.IntN(nc))
	}
	for c := 0; c < nc && c < nv; c++ {
		clusterOf[c] = int32(c)
	}
	return h, clusterOf, nc
}

// TestContractParallelMatchesReference drives ContractParallel at several
// worker counts against the frozen contractReference over 40 random
// hypergraphs and clusterings (merge on and off, pads, multi-resource
// weights, repeated calls through the pooled shards) and requires
// bit-identical output, net maps included. The fallback threshold is lowered
// so every trial takes the parallel path.
func TestContractParallelMatchesReference(t *testing.T) {
	defer func(n int) { minParallelNets = n }(minParallelNets)
	minParallelNets = 1

	rng := rand.New(rand.NewPCG(43, 7))
	for trial := 0; trial < 40; trial++ {
		h, clusterOf, nc := randomContractTrial(rng)
		opts := ContractOptions{MergeParallelNets: trial%2 == 0}
		want, wantMap, err := contractReference(h, clusterOf, nc, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			got, gotMap, err := ContractParallel(h, clusterOf, nc, opts, workers)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			identicalHypergraph(t, want, got)
			if !slices.Equal(wantMap, gotMap) {
				t.Fatalf("trial %d workers %d: netMap differs", trial, workers)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("trial %d workers %d: coarse hypergraph invalid: %v", trial, workers, err)
			}
		}
	}
}

// TestContractParallelLargeInstance exercises the parallel path above the
// real fallback threshold, where chunking is non-trivial, and checks worker
// counts that do not divide the net count evenly.
func TestContractParallelLargeInstance(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 9))
	const nv, ne = 4000, 9000
	bl := NewBuilder(1)
	bl.DedupPins = true
	bl.DropSingletons = true
	for v := 0; v < nv; v++ {
		if v%97 == 0 {
			bl.AddPad("")
		} else {
			bl.AddVertex(int64(1 + rng.IntN(5)))
		}
	}
	for e := 0; e < ne; e++ {
		sz := 2 + rng.IntN(6)
		pins := make([]int, sz)
		for i := range pins {
			pins[i] = rng.IntN(nv)
		}
		bl.AddWeightedNet(int64(1+rng.IntN(3)), pins...)
	}
	h := bl.MustBuild()
	nc := nv / 2
	clusterOf := make([]int32, nv)
	for v := range clusterOf {
		clusterOf[v] = int32(rng.IntN(nc))
	}
	for c := 0; c < nc; c++ {
		clusterOf[c] = int32(c)
	}
	for _, opts := range []ContractOptions{{MergeParallelNets: true}, {}} {
		want, wantMap, err := contractReference(h, clusterOf, nc, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 5, 7, 8, 16} {
			got, gotMap, err := ContractParallel(h, clusterOf, nc, opts, workers)
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			identicalHypergraph(t, want, got)
			if !slices.Equal(wantMap, gotMap) {
				t.Fatalf("workers %d: netMap differs", workers)
			}
		}
	}
}

// TestContractParallelErrors checks the parallel path rejects malformed
// inputs with the same messages as the serial scan, including reporting the
// smallest out-of-range vertex even when it lives in a later chunk.
func TestContractParallelErrors(t *testing.T) {
	defer func(n int) { minParallelNets = n }(minParallelNets)
	minParallelNets = 1

	bl := NewBuilder(1)
	for i := 0; i < 12; i++ {
		bl.AddVertex(1)
	}
	for i := 0; i < 6; i++ {
		bl.AddNet(i, i+1, (i+5)%12)
	}
	h := bl.MustBuild()
	cases := []struct {
		clusterOf []int32
		nc        int
	}{
		{make([]int32, 5), 2},                             // wrong length
		{[]int32{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 99, 3}, 4}, // out of range, later chunk
		{[]int32{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 2},  // empty cluster
		{[]int32{0, 1, 2, 3, 0, 1, 2, 3, -1, 1, 2, 3}, 4}, // negative
		{[]int32{3, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, 4},  // valid control
	}
	for i, c := range cases {
		refH, _, refErr := contractReference(h, c.clusterOf, c.nc, ContractOptions{MergeParallelNets: true})
		gotH, _, gotErr := ContractParallel(h, c.clusterOf, c.nc, ContractOptions{MergeParallelNets: true}, 4)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: error mismatch: reference %v, parallel %v", i, refErr, gotErr)
		}
		if refErr != nil {
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("case %d: message mismatch: %q vs %q", i, refErr, gotErr)
			}
			continue
		}
		identicalHypergraph(t, refH, gotH)
	}
}
