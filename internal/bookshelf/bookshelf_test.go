package bookshelf_test

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bookshelf"
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

// sample builds a hypergraph with 4 cells then 2 pads (pads last, as the
// writer requires).
func sample(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 4; i++ {
		b.AddCell("", int64(i+1))
	}
	p1 := b.AddPad("")
	p2 := b.AddPad("")
	b.AddNet(0, 1, 2)
	b.AddNet(2, 3)
	b.AddNet(p1, 0)
	b.AddNet(p2, 3, 1)
	return mustBuild(b)
}

func roundTrip(t *testing.T, h *hypergraph.Hypergraph) *hypergraph.Hypergraph {
	t.Helper()
	var netBuf, areBuf bytes.Buffer
	if err := bookshelf.WriteNetAre(&netBuf, &areBuf, h); err != nil {
		t.Fatalf("WriteNetAre: %v", err)
	}
	got, err := bookshelf.ReadNetAre(&netBuf, &areBuf)
	if err != nil {
		t.Fatalf("ReadNetAre: %v", err)
	}
	return got
}

func sameHypergraph(a, b *hypergraph.Hypergraph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumNets() != b.NumNets() ||
		a.NumPins() != b.NumPins() || a.NumResources() != b.NumResources() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.IsPad(v) != b.IsPad(v) {
			return false
		}
		for r := 0; r < a.NumResources(); r++ {
			if a.WeightIn(v, r) != b.WeightIn(v, r) {
				return false
			}
		}
	}
	for e := 0; e < a.NumNets(); e++ {
		pa, pb := a.Pins(e), b.Pins(e)
		if len(pa) != len(pb) {
			return false
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false
			}
		}
	}
	return true
}

func TestNetAreRoundTrip(t *testing.T) {
	h := sample(t)
	got := roundTrip(t, h)
	if !sameHypergraph(h, got) {
		t.Error("round trip changed the hypergraph")
	}
}

func TestNetAreMultiResource(t *testing.T) {
	b := hypergraph.NewBuilder(3)
	b.AddCell("", 5, 1, 9)
	b.AddCell("", 7, 2, 0)
	b.AddNet(0, 1)
	h := mustBuild(b)
	got := roundTrip(t, h)
	if got.NumResources() != 3 || got.WeightIn(0, 2) != 9 {
		t.Errorf("multi-resource areas lost: resources=%d w=%d", got.NumResources(), got.WeightIn(0, 2))
	}
}

func TestWriteNetAreRejectsInterleavedPads(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	b.AddPad("")
	b.AddCell("", 1)
	b.AddNet(0, 1)
	h := mustBuild(b)
	var n, a bytes.Buffer
	if err := bookshelf.WriteNetAre(&n, &a, h); err == nil {
		t.Error("want error for pad before cells")
	}
}

func TestNetAreFormatShape(t *testing.T) {
	h := sample(t)
	var netBuf, areBuf bytes.Buffer
	if err := bookshelf.WriteNetAre(&netBuf, &areBuf, h); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(netBuf.String()), "\n")
	if lines[0] != "0" || lines[1] != "10" || lines[2] != "4" || lines[3] != "6" || lines[4] != "4" {
		t.Errorf("header = %v", lines[:5])
	}
	if lines[5] != "a0 s" {
		t.Errorf("first pin line = %q, want \"a0 s\"", lines[5])
	}
	if !strings.Contains(areBuf.String(), "p1 0") {
		t.Errorf("pad area missing: %q", areBuf.String())
	}
}

func TestReadNetAreErrors(t *testing.T) {
	are := "a0 1\na1 1\n"
	cases := []struct{ name, net, are string }{
		{"short header", "0\n4\n", are},
		{"unknown module", "0\n2\n1\n2\n2\nzz s\na1 l\n", are},
		{"bad tag", "0\n2\n1\n2\n2\na0 x\na1 l\n", are},
		{"continuation first", "0\n2\n1\n2\n2\na0 l\na1 l\n", are},
		{"pin count mismatch", "0\n5\n1\n2\n2\na0 s\na1 l\n", are},
		{"net count mismatch", "0\n2\n2\n2\n2\na0 s\na1 l\n", are},
		{"missing area", "0\n2\n1\n2\n2\na0 s\na1 l\n", "a0 1\n"},
		{"duplicate area", "0\n2\n1\n2\n2\na0 s\na1 l\n", "a0 1\na0 2\na1 1\n"},
		{"bad pad offset", "0\n2\n1\n2\n9\na0 s\na1 l\n", are},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := bookshelf.ReadNetAre(strings.NewReader(c.net), strings.NewReader(c.are))
			if err == nil {
				t.Errorf("want error")
			}
		})
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	net := "# classic format\n0\n2\n1\n2\n2\n\na0 s # start\na1 l\n"
	are := "a0 3\n# trailing\na1 4\n"
	h, err := bookshelf.ReadNetAre(strings.NewReader(net), strings.NewReader(are))
	if err != nil {
		t.Fatalf("ReadNetAre: %v", err)
	}
	if h.Weight(0) != 3 || h.Weight(1) != 4 {
		t.Errorf("areas = %d,%d", h.Weight(0), h.Weight(1))
	}
}

func TestBlkRoundTrip(t *testing.T) {
	bal := partition.Balance{
		Min: [][]int64{{10, 1}, {20, 2}, {0, 0}},
		Max: [][]int64{{30, 5}, {40, 6}, {50, 7}},
	}
	var buf bytes.Buffer
	if err := bookshelf.WriteBlk(&buf, bal); err != nil {
		t.Fatalf("WriteBlk: %v", err)
	}
	got, k, err := bookshelf.ReadBlk(&buf)
	if err != nil {
		t.Fatalf("ReadBlk: %v", err)
	}
	if k != 3 {
		t.Errorf("k = %d", k)
	}
	for p := 0; p < 3; p++ {
		for r := 0; r < 2; r++ {
			if got.Min[p][r] != bal.Min[p][r] || got.Max[p][r] != bal.Max[p][r] {
				t.Errorf("bounds differ at part %d resource %d", p, r)
			}
		}
	}
}

func TestReadBlkErrors(t *testing.T) {
	cases := []string{
		"",
		"parts 2\n",
		"resources 1\nparts 2\n",
		"parts 1\nresources 1\n0 1 2\n",
		"parts 2\nresources 1\n0 1 2\n",
		"parts 2\nresources 1\n0 1 2\n0 1 2\n",
		"parts 2\nresources 1\n0 1\n1 1 2\n",
		"parts 2\nresources 1\n7 1 2\n1 1 2\n",
	}
	for i, c := range cases {
		if _, _, err := bookshelf.ReadBlk(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestFixRoundTrip(t *testing.T) {
	h := sample(t)
	p := partition.NewFree(h, 4, 0.5)
	p.Fix(4, 0)                                  // pad p1
	p.Restrict(5, partition.Single(1).With(3))   // pad p2: OR-region {1,3}
	p.Restrict(0, partition.AllParts(4).With(0)) // effectively free; not written

	var buf bytes.Buffer
	if err := bookshelf.WriteFix(&buf, p); err != nil {
		t.Fatalf("WriteFix: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "p1 0") || !strings.Contains(text, "p2 1 3") {
		t.Errorf("fix file contents: %q", text)
	}
	if strings.Contains(text, "a0") {
		t.Errorf("free vertex written: %q", text)
	}
	names := map[string]int{"a0": 0, "a1": 1, "a2": 2, "a3": 3, "p1": 4, "p2": 5}
	masks, err := bookshelf.ReadFix(&buf, names, 6, 4)
	if err != nil {
		t.Fatalf("ReadFix: %v", err)
	}
	if masks[4] != partition.Single(0) {
		t.Errorf("mask p1 = %b", masks[4])
	}
	if masks[5] != partition.Single(1).With(3) {
		t.Errorf("mask p2 = %b", masks[5])
	}
	if masks[0] != partition.AllParts(4) {
		t.Errorf("mask a0 = %b, want free", masks[0])
	}
}

func TestReadFixErrors(t *testing.T) {
	names := map[string]int{"a0": 0}
	cases := []string{"a0\n", "zz 1\n", "a0 9\n", "a0 -1\n"}
	for i, c := range cases {
		if _, err := bookshelf.ReadFix(strings.NewReader(c), names, 1, 2); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestSolutionRoundTrip(t *testing.T) {
	h := sample(t)
	p := partition.NewBipartition(h, 0.5)
	a := partition.Assignment{0, 1, 0, 1, 0, 1}
	var buf bytes.Buffer
	if err := bookshelf.WriteSolution(&buf, p, a); err != nil {
		t.Fatalf("WriteSolution: %v", err)
	}
	got, err := bookshelf.ReadSolution(&buf, p)
	if err != nil {
		t.Fatalf("ReadSolution: %v", err)
	}
	for v := range a {
		if got[v] != a[v] {
			t.Errorf("solution differs at %d", v)
		}
	}
	// Missing module error.
	if _, err := bookshelf.ReadSolution(strings.NewReader("a0 1\n"), p); err == nil {
		t.Error("want error for incomplete solution")
	}
}

func TestProblemBundleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h := sample(t)
	p := partition.NewBipartition(h, 0.1)
	p.Fix(4, 0)
	p.Fix(5, 1)
	if err := bookshelf.WriteProblem(dir, "tiny", p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	got, err := bookshelf.ReadProblem(dir, "tiny")
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if got.K != 2 || !sameHypergraph(p.H, got.H) {
		t.Error("bundle round trip changed the instance")
	}
	if part, ok := got.FixedPart(4); !ok || part != 0 {
		t.Errorf("pad fixation lost: %d %v", part, ok)
	}
	if got.NumFixed() != 2 {
		t.Errorf("NumFixed = %d", got.NumFixed())
	}
	// Cell areas are 1,2,3,4; {0,1,0,1} splits 4/6, inside the 10%-of-10
	// bounds [4,6]; pads are weightless.
	if !got.Balance.Admits(partition.PartWeights(got.H, partition.Assignment{0, 1, 0, 1, 0, 1}, 2)) {
		t.Error("balance semantics changed")
	}
	if got.Balance.Admits(partition.PartWeights(got.H, partition.Assignment{0, 0, 1, 1, 0, 1}, 2)) {
		t.Error("balance accepts a 3/7 split it should reject")
	}
}

func TestProblemBundleRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 31))
		nCells := 4 + rng.IntN(20)
		nPads := rng.IntN(4)
		b := hypergraph.NewBuilder(1)
		for i := 0; i < nCells; i++ {
			b.AddCell("", int64(1+rng.IntN(9)))
		}
		for i := 0; i < nPads; i++ {
			b.AddPad("")
		}
		nv := nCells + nPads
		for e := 0; e < 2*nv; e++ {
			sz := 2 + rng.IntN(3)
			b.AddNet(rng.Perm(nv)[:sz]...)
		}
		h := mustBuild(b)
		k := 2 + rng.IntN(3)
		p := partition.NewFree(h, k, 0.5)
		for v := 0; v < nv; v++ {
			if rng.IntN(3) == 0 {
				p.Fix(v, rng.IntN(k))
			}
		}
		if err := bookshelf.WriteProblem(dir, "prop", p); err != nil {
			return false
		}
		got, err := bookshelf.ReadProblem(dir, "prop")
		if err != nil {
			return false
		}
		if !sameHypergraph(p.H, got.H) || got.K != p.K {
			return false
		}
		for v := 0; v < nv; v++ {
			if p.MaskOf(v)&partition.AllParts(k) != got.MaskOf(v)&partition.AllParts(k) {
				return false
			}
		}
		// Cut of a random assignment is identical on both sides.
		a := make(partition.Assignment, nv)
		for v := range a {
			a[v] = int8(rng.IntN(k))
		}
		return partition.Cut(p.H, a) == partition.Cut(got.H, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadProblemMissingFixIsFree(t *testing.T) {
	dir := t.TempDir()
	h := sample(t)
	p := partition.NewBipartition(h, 0.2)
	if err := bookshelf.WriteProblem(dir, "free", p); err != nil {
		t.Fatalf("WriteProblem: %v", err)
	}
	got, err := bookshelf.ReadProblem(dir, "free")
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if got.NumFixed() != 0 {
		t.Errorf("NumFixed = %d, want 0", got.NumFixed())
	}
}

func TestReadNetDDirections(t *testing.T) {
	// .netD style: a direction column I/O/B after the tag.
	net := "0\n3\n1\n3\n3\na0 s O\na1 l I\na2 l B\n"
	are := "a0 1\na1 1\na2 1\n"
	h, err := bookshelf.ReadNetAre(strings.NewReader(net), strings.NewReader(are))
	if err != nil {
		t.Fatalf("ReadNetAre(.netD): %v", err)
	}
	if h.NumNets() != 1 || h.NetSize(0) != 3 {
		t.Errorf("netD parse: %v", h)
	}
	bad := "0\n2\n1\n2\n2\na0 s X\na1 l\n"
	if _, err := bookshelf.ReadNetAre(strings.NewReader(bad), strings.NewReader(are)); err == nil {
		t.Error("want error for unknown direction")
	}
	long := "0\n2\n1\n2\n2\na0 s O extra\na1 l\n"
	if _, err := bookshelf.ReadNetAre(strings.NewReader(long), strings.NewReader(are)); err == nil {
		t.Error("want error for overlong pin line")
	}
}

func TestWriteProblemRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	h := sample(t)
	p := partition.NewFree(h, 1, 0.1) // k < 2: invalid
	if err := bookshelf.WriteProblem(dir, "bad", p); err == nil {
		t.Error("want error for invalid problem")
	}
}
