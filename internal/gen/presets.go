package gen

import "fmt"

// Preset is a named parameter set approximating one of the ISPD-98 IBM
// circuits the paper evaluates. Vertex and net counts match the published
// suite statistics; Rent exponents and area skew are set to the values the
// paper cites for modern designs (p near 0.68, k = 3.5, individual cells up
// to several percent of total area).
type Preset struct {
	Name   string
	Params Params
}

// IBMPresets returns IBM01S..IBM05S, synthetic stand-ins for IBM01-IBM05.
// The trailing "S" marks them as synthetic: they reproduce the suite's
// statistics, not its logic.
func IBMPresets() []Preset {
	mk := func(name string, cells, pads int, maxAreaPct float64, seed uint64) Preset {
		return Preset{
			Name: name,
			Params: Params{
				Cells:         cells,
				Pads:          pads,
				RentExponent:  0.68,
				PinsPerCell:   3.9,
				AvgNetSize:    3.5,
				MacroFraction: 0.0005,
				MaxAreaPct:    maxAreaPct,
				Seed:          seed,
			},
		}
	}
	return []Preset{
		mk("IBM01S", 12506, 246, 6.4, 101),
		mk("IBM02S", 19342, 259, 11.3, 102),
		mk("IBM03S", 22853, 283, 9.7, 103),
		mk("IBM04S", 27220, 287, 9.2, 104),
		mk("IBM05S", 28146, 1201, 2.8, 105),
	}
}

// HugePresets returns HUGE1/HUGE2, million-cell synthetic instances sized
// for the intra-descent parallel coarsening and refinement paths (perfbench
// scales HUGE1 down for its solve and serve workloads). They are
// placement-scale rather than suite stand-ins: HUGE1 keeps the IBM-like Rent
// exponent, HUGE2 is larger, flatter (p = 0.62) and slightly denser, so the
// two stress different net-size mixes. Area skew is kept small so
// bipartition balance stays feasible at tight tolerances.
func HugePresets() []Preset {
	return []Preset{
		{
			Name: "HUGE1",
			Params: Params{
				Cells:         1_000_000,
				Pads:          4_000,
				RentExponent:  0.68,
				PinsPerCell:   3.9,
				AvgNetSize:    3.5,
				MacroFraction: 0.0002,
				MaxAreaPct:    1.5,
				Seed:          201,
			},
		},
		{
			Name: "HUGE2",
			Params: Params{
				Cells:         1_500_000,
				Pads:          6_000,
				RentExponent:  0.62,
				PinsPerCell:   4.2,
				AvgNetSize:    3.8,
				MacroFraction: 0.0002,
				MaxAreaPct:    1.5,
				Seed:          202,
			},
		},
	}
}

// AllPresets returns every named preset: the IBM stand-ins followed by the
// million-cell HUGE instances.
func AllPresets() []Preset {
	return append(IBMPresets(), HugePresets()...)
}

// PresetByName returns the preset with the given name (case-sensitive).
func PresetByName(name string) (Preset, error) {
	for _, p := range AllPresets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("gen: unknown preset %q", name)
}
