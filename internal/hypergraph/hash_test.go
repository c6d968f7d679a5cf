package hypergraph_test

import (
	"testing"

	"repro/internal/hypergraph"
)

func buildForHash(t *testing.T, mutate func(b *hypergraph.Builder)) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(1)
	for v := 0; v < 6; v++ {
		b.AddVertex(int64(v + 1))
	}
	b.SetPad(5, true)
	b.AddNet(0, 1, 2)
	b.AddNet(2, 3)
	b.AddWeightedNet(3, 3, 4, 5)
	if mutate != nil {
		mutate(b)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestFingerprintStable: two independent builds of the same hypergraph share
// a fingerprint, and the fingerprint is a fixed value — it must never change
// across releases, because hpartd cache keys and recorded BENCH artifacts
// embed it.
func TestFingerprintStable(t *testing.T) {
	a := buildForHash(t, nil)
	b := buildForHash(t, nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("identical builds disagree: %016x vs %016x", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not idempotent")
	}
}

// TestFingerprintSensitivity: every structural aspect — vertex weights, net
// pins, net weights, pad flags — moves the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := buildForHash(t, nil).Fingerprint()
	cases := map[string]func(b *hypergraph.Builder){
		"extra net":        func(b *hypergraph.Builder) { b.AddNet(0, 4) },
		"extra vertex+net": func(b *hypergraph.Builder) { v := b.AddVertex(9); b.AddNet(v, 0) },
		"net weight":       func(b *hypergraph.Builder) { b.AddWeightedNet(7, 0, 3) },
		"pad flag":         func(b *hypergraph.Builder) { b.SetPad(4, true) },
	}
	for name, mutate := range cases {
		if got := buildForHash(t, mutate).Fingerprint(); got == base {
			t.Errorf("%s: fingerprint unchanged (%016x)", name, got)
		}
	}
}

// TestFingerprintIgnoresNames: names are presentation, not structure.
func TestFingerprintIgnoresNames(t *testing.T) {
	unnamed := buildForHash(t, func(b *hypergraph.Builder) { b.AddNet(b.AddVertex(1), 0) })
	named := buildForHash(t, func(b *hypergraph.Builder) { b.AddNet(b.AddCell("alu7", 1), 0) })
	if named.Fingerprint() != unnamed.Fingerprint() {
		t.Errorf("naming a vertex changed the fingerprint")
	}
}

// TestFingerprintBuilder exercises the streaming Fingerprint helper directly.
func TestFingerprintBuilder(t *testing.T) {
	a := hypergraph.NewFingerprint().Word(1).Word(2).Sum()
	b := hypergraph.NewFingerprint().Word(2).Word(1).Sum()
	if a == b {
		t.Error("word order does not matter — FNV should be order-sensitive")
	}
	c := hypergraph.NewFingerprint().Words([]int64{1, 2, 3}).Sum()
	d := hypergraph.NewFingerprint().Words([]int64{1, 2, 3}).Sum()
	if c != d {
		t.Error("Words not deterministic")
	}
}
