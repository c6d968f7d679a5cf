// Topdown demonstrates where fixed-terminals partitioning instances come
// from: it generates a synthetic circuit, places it top-down, derives a
// half-chip block with propagated terminals (the paper's Section IV
// construction), and partitions that block — comparing the effort against
// the free instance of the same block.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/benchgen"
	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/rent"
)

func main() {
	// 1. A synthetic circuit in the style of the ISPD-98 suite.
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		log.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.15))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %v, %d pads\n", nl.H, nl.H.NumPads())

	// 2. Top-down placement with pads pinned on the periphery.
	fx, fy := nl.PadPositions()
	rng := rand.New(rand.NewPCG(7, 7))
	pl, err := place.Place(nl.H, place.Config{
		Width: float64(nl.GridSide), Height: float64(nl.GridSide),
		FixedX: fx, FixedY: fy,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement HPWL: %.0f\n", pl.HPWL())

	// 3. Derive the left-half block with a vertical cutline: external nets
	// propagate in as fixed zero-area terminals.
	specs := benchgen.StandardSpecs(pl, pr.Name)
	inst, err := benchgen.Derive(pl, specs[2], 0.02) // block B = left half
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nderived instance %s:\n", inst.Name)
	fmt.Printf("  cells=%d nets=%d terminals=%d external nets=%d\n",
		inst.Stats.Cells, inst.Stats.Nets, inst.Stats.Pads, inst.Stats.ExternalNets)
	fmt.Printf("  fixed fraction: %.1f%%\n", 100*inst.Problem.FixedFraction())
	expect := rent.ExpectedTerminals(float64(inst.Stats.Cells), 0.62, rent.DefaultPinsPerCell)
	fmt.Printf("  Rent expectation at p=0.62: ~%.0f propagated terminals (we got %d external nets)\n",
		expect, inst.Stats.ExternalNets)

	// 4. Partition the block: with this many terminals a single start is
	// enough (the paper's headline observation).
	single, err := multilevel.Partition(inst.Problem, multilevel.Config{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	eight, err := multilevel.Solve(context.Background(), inst.Problem, multilevel.Config{}, multilevel.Spec{Starts: 8}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfixed-terminals block: 1 start cut=%d, 8 starts cut=%d\n", single.Cut, eight.Cut)

	// The same block with its terminals freed needs more starts to stabilize.
	free := &partition.Problem{H: inst.Problem.H, K: 2, Balance: inst.Problem.Balance}
	fsingle, err := multilevel.Partition(free, multilevel.Config{}, rng)
	if err != nil {
		log.Fatal(err)
	}
	feight, err := multilevel.Solve(context.Background(), free, multilevel.Config{}, multilevel.Spec{Starts: 8}, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same block, terminals freed: 1 start cut=%d, 8 starts cut=%d\n", fsingle.Cut, feight.Cut)
}
