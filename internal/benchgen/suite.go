package benchgen

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/gen"
	"repro/internal/place"
)

// Suite generates preset pr at the given scale, places it top-down with its
// pads pinned to the generator's periphery (placer stream PCG(seed, 0x9ace),
// on workers goroutines; the placement is the same for every count), and
// derives the preset's StandardSpecs instances at the paper's 2% tolerance.
func Suite(pr gen.Preset, scale float64, seed uint64, workers int) (*place.Placement, []*Instance, error) {
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		return nil, nil, fmt.Errorf("generating %s: %w", pr.Name, err)
	}
	fx, fy := nl.PadPositions()
	side := float64(nl.GridSide)
	pl, err := place.Place(nl.H, place.Config{
		Width: side, Height: side,
		FixedX: fx, FixedY: fy, Workers: workers,
	}, rand.New(rand.NewPCG(seed, 0x9ace)))
	if err != nil {
		return nil, nil, fmt.Errorf("placing %s: %w", pr.Name, err)
	}
	var instances []*Instance
	for _, spec := range StandardSpecs(pl, pr.Name) {
		inst, err := Derive(pl, spec, 0.02)
		if err != nil {
			return nil, nil, fmt.Errorf("deriving %s: %w", spec.Name, err)
		}
		instances = append(instances, inst)
	}
	return pl, instances, nil
}
