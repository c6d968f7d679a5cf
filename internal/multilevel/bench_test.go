package multilevel_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

func benchProblem(b *testing.B, scale float64) *partition.Problem {
	b.Helper()
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		b.Fatal(err)
	}
	return partition.NewBipartition(nl.H, 0.02)
}

func BenchmarkPartition(b *testing.B) {
	p := benchProblem(b, 0.2)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multilevel.Partition(p, multilevel.Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionFullScale(b *testing.B) {
	p := benchProblem(b, 1.0)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multilevel.Partition(p, multilevel.Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionFixed30(b *testing.B) {
	p := benchProblem(b, 0.2)
	rng := rand.New(rand.NewPCG(1, 1))
	nv := p.H.NumVertices()
	for _, v := range rng.Perm(nv)[:nv*3/10] {
		p.Fix(v, rng.IntN(2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multilevel.Partition(p, multilevel.Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecursiveBisect4(b *testing.B) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		b.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.2))
	if err != nil {
		b.Fatal(err)
	}
	p := partition.NewFree(nl.H, 4, 0.05)
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMultistart measures 8-start multilevel runs at several
// worker counts. On a single-CPU host all counts degenerate to serial
// throughput; the sub-benchmarks exist to expose scheduling overhead and, on
// multicore hosts, the speedup of the deterministic parallel driver.
func BenchmarkParallelMultistart(b *testing.B) {
	p := benchProblem(b, 0.2)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := multilevel.Config{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(1, 1))
				if _, err := solve(p, cfg, multilevel.Spec{Starts: 8}, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAdaptiveMultistartParallel(b *testing.B) {
	p := benchProblem(b, 0.2)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := multilevel.Config{Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewPCG(1, 1))
				if _, err := solve(p, cfg, multilevel.Spec{Starts: 16, Patience: 2}, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
