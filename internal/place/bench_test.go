package place_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/place"
)

func BenchmarkPlace(b *testing.B) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.1))
	if err != nil {
		b.Fatal(err)
	}
	fx, fy := nl.PadPositions()
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := place.Place(nl.H, place.Config{
			Width: float64(nl.GridSide), Height: float64(nl.GridSide),
			FixedX: fx, FixedY: fy,
		}, rng); err != nil {
			b.Fatal(err)
		}
	}
}
