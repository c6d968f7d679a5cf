// Formats demonstrates the supported fixed-terminals benchmark formats: a
// multi-resource instance with fixed and OR-region terminals is written as a
// .net/.are/.blk/.fix bundle, read back, and solved; then a single-resource
// instance makes the round trip through the hMetis exchange formats —
// .hgr netlist plus KaHyPar-style .fix — and back, bit-identically.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"path/filepath"

	"repro/internal/bookshelf"
	"repro/internal/fm"
	"repro/internal/hgr"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

func main() {
	// A quadrisection-style instance with two resources per module (say,
	// cell area and pin count — the paper's "multibalanced" feature).
	b := hypergraph.NewBuilder(2)
	for i := 0; i < 16; i++ {
		b.AddCell(fmt.Sprintf("c%d", i), int64(1+i%3), int64(2+i%4))
	}
	for i := 0; i < 16; i++ {
		b.AddNet(i, (i+1)%16)
		b.AddNet(i, (i+5)%16)
	}
	pads := []int{b.AddPad("io0"), b.AddPad("io1"), b.AddPad("io2")}
	for i, pd := range pads {
		b.AddNet(pd, i*4, i*4+1)
	}
	h, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	p := partition.NewFree(h, 4, 0.25)
	p.Fix(pads[0], 0)
	p.Fix(pads[1], 3)
	// A propagated terminal fixed in either left-side quadrant — the OR
	// semantics of the proposed format.
	p.Restrict(pads[2], partition.Single(0).With(2))

	dir, err := os.MkdirTemp("", "formats")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := bookshelf.WriteProblem(dir, "quad", p); err != nil {
		log.Fatal(err)
	}
	for _, ext := range []string{".net", ".are", ".blk", ".fix"} {
		data, err := os.ReadFile(filepath.Join(dir, "quad"+ext))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- quad%s (%d bytes) ---\n", ext, len(data))
		if ext != ".net" { // the netlist is long; show the others in full
			fmt.Print(string(data))
		}
	}

	back, err := bookshelf.ReadProblem(dir, "quad")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread back: %v, k=%d, %d resources, %d constrained vertices\n",
		back.H, back.K, back.H.NumResources(), back.NumFixed()+1)

	// Solve with a feasible random start + direct k-way FM.
	rng := rand.New(rand.NewPCG(5, 5))
	res, err := fm.RunFromRandom(back, fm.Config{Policy: fm.LIFO}, rng)
	if err != nil {
		log.Fatal(err)
	}
	a := res.Assignment
	fmt.Printf("4-way cut after refinement: %d\n", res.Cut)
	fmt.Printf("io0 -> part %d (fixed 0), io1 -> part %d (fixed 3), io2 -> part %d (allowed {0,2})\n",
		a[pads[0]], a[pads[1]], a[pads[2]])

	hgrRoundTrip()
}

// hgrRoundTrip makes the same journey through the standard exchange formats:
// hypergraph out as hMetis .hgr text, constraints out as a KaHyPar-style
// .fix, both back in as a ready-to-solve Problem with identical fingerprint
// and masks. (.hgr carries one weight per vertex, so this instance is
// single-resource — the Bookshelf bundle above is the format for
// multibalanced studies.)
func hgrRoundTrip() {
	b := hypergraph.NewBuilder(1)
	for i := 0; i < 12; i++ {
		b.AddVertex(int64(1 + i%3))
	}
	for i := 0; i < 12; i++ {
		b.AddWeightedNet(int64(1+i%2), i, (i+1)%12, (i+4)%12)
	}
	h, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	p := partition.NewFree(h, 2, 0.3)
	p.Fix(0, 0)
	p.Fix(7, 1)
	// An OR-region spanning every part of a bisection is no constraint at
	// all; WriteFix normalizes it to a plain -1 line.
	p.Restrict(3, partition.Single(0).With(1))

	var hgrText, fixText bytes.Buffer
	if err := hgr.WriteHGR(&hgrText, h); err != nil {
		log.Fatal(err)
	}
	if err := hgr.WriteFix(&fixText, p); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n--- circuit.hgr (%d bytes) ---\n%s", hgrText.Len(), hgrText.String())
	fmt.Printf("--- circuit.fix ---\n%s", fixText.String())

	back, err := hgr.ReadProblem(bytes.NewReader(hgrText.Bytes()), bytes.NewReader(fixText.Bytes()), 2, 0.3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread back: %v, k=%d, fixed=%d\n", back.H, back.K, back.NumFixed())
	if back.H.Fingerprint() != h.Fingerprint() {
		log.Fatal("round trip changed the hypergraph fingerprint")
	}
	for v := 0; v < h.NumVertices(); v++ {
		if back.MaskOf(v) != p.MaskOf(v) {
			log.Fatalf("vertex %d mask changed in the round trip", v)
		}
	}
	fmt.Println("hgr round trip: fingerprints and masks identical")

	rng := rand.New(rand.NewPCG(7, 7))
	res, err := fm.RunFromRandom(back, fm.Config{Policy: fm.CLIP}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bisection cut: %d (vertex 0 -> part %d, vertex 7 -> part %d)\n",
		res.Score, res.Assignment[0], res.Assignment[7])
}
