package fm_test

import (
	"math/rand/v2"
	"testing"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/partition"
)

func benchProblem(b *testing.B) *partition.Problem {
	b.Helper()
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.2))
	if err != nil {
		b.Fatal(err)
	}
	return partition.NewBipartition(nl.H, 0.02)
}

func benchFlat(b *testing.B, cfg fm.Config) {
	p := benchProblem(b)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fm.RunFromRandom(p, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlatLIFO(b *testing.B) { benchFlat(b, fm.Config{Policy: fm.LIFO}) }
func BenchmarkFlatCLIP(b *testing.B) { benchFlat(b, fm.Config{Policy: fm.CLIP}) }

func BenchmarkFlatLIFOCutoff5(b *testing.B) {
	benchFlat(b, fm.Config{Policy: fm.LIFO, MaxPassFraction: 0.05})
}

func BenchmarkKWayFM4(b *testing.B) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.2))
	if err != nil {
		b.Fatal(err)
	}
	p := partition.NewFree(nl.H, 4, 0.05)
	rng := rand.New(rand.NewPCG(2, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fm.Refine(p, initial, fm.Config{Policy: fm.LIFO}); err != nil {
			b.Fatal(err)
		}
	}
}

// Scratch-reuse benchmarks: the same pass over the same initial solution,
// once allocating fresh per-run state each iteration and once reusing a
// single Scratch. The allocs/op gap is the cost the sync.Pool in Refine
// removes from multistart loops.

func benchInitial(b *testing.B, p *partition.Problem) partition.Assignment {
	b.Helper()
	initial, err := partition.RandomFeasible(p, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		b.Fatal(err)
	}
	return initial
}

func BenchmarkBipartitionFreshScratch(b *testing.B) {
	p := benchProblem(b)
	initial := benchInitial(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refineWith(p, initial, fm.Config{Policy: fm.CLIP}, &fm.Scratch{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartitionReusedScratch(b *testing.B) {
	p := benchProblem(b)
	initial := benchInitial(b, p)
	sc := &fm.Scratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refineWith(p, initial, fm.Config{Policy: fm.CLIP}, sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipartitionPooled(b *testing.B) {
	p := benchProblem(b)
	initial := benchInitial(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fm.Refine(p, initial, fm.Config{Policy: fm.CLIP}); err != nil {
			b.Fatal(err)
		}
	}
}
