// Quadrisection demonstrates the paper's multiway features end to end: a
// placed circuit's left half is turned into a 4-way (quadrisection) instance
// whose propagated terminals carry OR-region masks — a terminal coming from
// the sibling half may land in either of two quadrants — and the instance is
// solved with recursive bisection plus direct k-way FM.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/benchgen"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/multilevel"
	"repro/internal/place"
)

func main() {
	pr, err := gen.PresetByName("IBM02S")
	if err != nil {
		log.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.1))
	if err != nil {
		log.Fatal(err)
	}
	fx, fy := nl.PadPositions()
	rng := rand.New(rand.NewPCG(42, 42))
	side := float64(nl.GridSide)
	pl, err := place.Place(nl.H, place.Config{Width: side, Height: side, FixedX: fx, FixedY: fy}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %v, placed (HPWL %.0f)\n", nl.H, pl.HPWL())

	// Left half of the chip becomes a quadrisection instance; everything in
	// the right half floats in its sibling block.
	block := geometry.Rect{X0: 0, Y0: 0, X1: side / 2, Y1: side * 1.0001}
	sibling := []geometry.Rect{{X0: side / 2, Y0: 0, X1: side * 1.0001, Y1: side * 1.0001}}
	inst, err := benchgen.DeriveQuad(pl, pr.Name+"_quadB", block, sibling, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquadrisection instance %s:\n  %d cells, %d nets, %d terminals (%d external nets)\n",
		inst.Name, inst.Stats.Cells, inst.Stats.Nets, inst.Stats.Pads, inst.Stats.ExternalNets)

	// Count the OR-region terminals (allowed in several quadrants).
	or, fixed := 0, 0
	for v := inst.Stats.Cells; v < inst.Problem.H.NumVertices(); v++ {
		if n := inst.Problem.MaskOf(v).Count(); n == 1 {
			fixed++
		} else {
			or++
		}
	}
	fmt.Printf("  terminals: %d fixed to one quadrant, %d with OR-regions\n", fixed, or)

	// Solve: multilevel recursive bisection, then direct 4-way FM.
	rb, err := multilevel.RecursiveBisect(inst.Problem, multilevel.Config{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := fm.Refine(inst.Problem, rb.Assignment, fm.Config{Policy: fm.CLIP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n4-way cut: %d after recursive bisection, %d after k-way FM (lambda-1 = %d)\n",
		rb.Cut, ref.Cut, ref.KMinus1)
}
