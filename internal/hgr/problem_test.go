package hgr

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

func buildMultiResource(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(2)
	for v := 0; v < 3; v++ {
		b.AddVertex(1)
		b.SetWeight(v, 1, 2)
	}
	b.AddWeightedNet(1, 0, 1)
	b.AddWeightedNet(1, 1, 2)
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestReadProblem(t *testing.T) {
	fix := "-1\n2\n-1\n0 3\n0\n-1\n-1\n"
	p, err := ReadProblem(strings.NewReader(hgrFmt11), strings.NewReader(fix), 4, 0.5)
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if p.K != 4 || p.H.NumVertices() != 7 {
		t.Fatalf("K = %d, vertices = %d; want 4, 7", p.K, p.H.NumVertices())
	}
	if q, ok := p.FixedPart(1); !ok || q != 2 {
		t.Fatalf("vertex 1 fixed part = %d, %v; want 2, true", q, ok)
	}
	if m := p.MaskOf(3); m != partition.Single(0)|partition.Single(3) {
		t.Fatalf("vertex 3 mask = %b, want OR-region {0,3}", m)
	}
	if !p.IsFree(0) || !p.IsFree(2) {
		t.Fatal("vertices 0 and 2 should be free")
	}
}

// A tolerance the balance bounds cannot be built from is rejected with an
// error naming it, not a min > max complaint about part 0.
func TestReadProblemBadTolerance(t *testing.T) {
	for _, tol := range []float64{math.NaN(), -0.5, math.Inf(1)} {
		_, err := ReadProblem(strings.NewReader(hgrFmt11), nil, 2, tol)
		if err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("tol %v: %v, want a tolerance error", tol, err)
		}
	}
}

// A fix file that constrains nothing must not change the problem — it yields
// the same fingerprint as no fix file, so JSON uploads (Allowed == nil) and
// .hgr uploads of constraint-free instances share a cache entry downstream.
func TestReadProblemAllFreeFingerprint(t *testing.T) {
	free, err := ReadProblem(strings.NewReader(hgrFmt11), nil, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	trivial, err := ReadProblem(strings.NewReader(hgrFmt11),
		strings.NewReader(strings.Repeat("-1\n", 7)), 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if trivial.Allowed != nil {
		t.Fatal("all-free fix file should normalize Allowed to nil")
	}
	if free.Fingerprint() != trivial.Fingerprint() {
		t.Fatalf("fingerprints differ: %016x vs %016x", free.Fingerprint(), trivial.Fingerprint())
	}
	constrained, err := ReadProblem(strings.NewReader(hgrFmt11),
		strings.NewReader("0\n"+strings.Repeat("-1\n", 6)), 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if constrained.Fingerprint() == free.Fingerprint() {
		t.Fatal("a real constraint must change the fingerprint")
	}
}

// A vertex heavier than every part it may occupy is rejected at ingestion
// with a diagnosable error, not left to fail mid-solve.
func TestCheckFeasibleHeavyVertex(t *testing.T) {
	// Vertex 1 carries 100 of the 103 total weight; with k=2 and tol=0.1
	// each part caps out well below 100.
	in := "2 3 10\n1 2\n2 3\n1\n100\n2\n"
	_, err := ReadProblem(strings.NewReader(in), nil, 2, 0.1)
	if err == nil {
		t.Fatal("ReadProblem accepted a balance-infeasible heavy vertex")
	}
	if !strings.HasPrefix(err.Error(), "hgr: vertex 1 (weight 100) exceeds the capacity of every part") {
		t.Fatalf("error = %q, want heavy-vertex prefix", err)
	}
	// The same weights are fine with a tolerance that admits the vertex.
	if _, err := ReadProblem(strings.NewReader(in), nil, 2, 1.0); err != nil {
		t.Fatalf("ReadProblem with loose tolerance: %v", err)
	}
}

// Fixed vertices whose combined weight overfills their part are rejected even
// when each vertex fits on its own.
func TestCheckFeasibleFixedOverfill(t *testing.T) {
	in := "2 4 10\n1 2\n3 4\n40\n40\n40\n40\n"
	fix := "0\n0\n0\n-1\n"
	_, err := ReadProblem(strings.NewReader(in), strings.NewReader(fix), 2, 0.1)
	if err == nil {
		t.Fatal("ReadProblem accepted overfilled fixed part")
	}
	if !strings.HasPrefix(err.Error(), "hgr: fixed vertices overfill part 0") {
		t.Fatalf("error = %q, want overfill prefix", err)
	}
	// The same fix file is feasible when spread across both parts.
	ok := "0\n1\n0\n-1\n"
	if _, err := ReadProblem(strings.NewReader(in), strings.NewReader(ok), 2, 0.1); err != nil {
		t.Fatalf("ReadProblem with balanced fix: %v", err)
	}
}

// Errors from either underlying reader pass through with their own prefixes.
func TestReadProblemPropagatesParseErrors(t *testing.T) {
	_, err := ReadProblem(strings.NewReader("1 2\n1 x\n"), nil, 2, 0.1)
	if err == nil || !strings.HasPrefix(err.Error(), `hgr: line 2: bad pin "x"`) {
		t.Fatalf("hgr error = %v, want bad-pin prefix", err)
	}
	_, err = ReadProblem(strings.NewReader(hgrFmt0), strings.NewReader("9\n"), 2, 0.1)
	if err == nil || !strings.HasPrefix(err.Error(), "fix: line 1: part 9 outside [0, 2)") {
		t.Fatalf("fix error = %v, want part-range prefix", err)
	}
}
