package multilevel_test

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// presetProblem builds a 2-way problem from a gen preset at reduced scale,
// optionally fixing a fraction of vertices (good-regime style: a mix of both
// parts) so the equivalence tests also cover the fixed-terminals regime.
func presetProblem(t *testing.T, name string, scale, fixedFrac float64) *partition.Problem {
	t.Helper()
	pr, err := gen.PresetByName(name)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewBipartition(nl.H, 0.02)
	if fixedFrac > 0 {
		rng := rand.New(rand.NewPCG(99, 99))
		nv := nl.H.NumVertices()
		for _, v := range rng.Perm(nv)[:int(fixedFrac*float64(nv))] {
			p.Fix(v, rng.IntN(2))
		}
	}
	return p
}

// solve runs multilevel.Solve without cancellation.
func solve(p *partition.Problem, cfg multilevel.Config, spec multilevel.Spec, rng *rand.Rand) (*multilevel.Result, error) {
	return multilevel.Solve(context.Background(), p, cfg, spec, rng)
}

func sameResult(t *testing.T, label string, want, got *multilevel.Result) {
	t.Helper()
	if got.Cut != want.Cut {
		t.Errorf("%s: cut = %d, want %d", label, got.Cut, want.Cut)
	}
	if got.Starts != want.Starts {
		t.Errorf("%s: starts = %d, want %d", label, got.Starts, want.Starts)
	}
	if len(got.Assignment) != len(want.Assignment) {
		t.Fatalf("%s: assignment length %d, want %d", label, len(got.Assignment), len(want.Assignment))
	}
	for v := range want.Assignment {
		if got.Assignment[v] != want.Assignment[v] {
			t.Errorf("%s: assignment diverges at vertex %d (%d vs %d)", label, v, got.Assignment[v], want.Assignment[v])
			return
		}
	}
}

// TestParallelMultistartMatchesSerial is the determinism contract:
// Solve with 1, 2 and 8 workers returns a bit-identical Result (cut +
// assignment + starts) to the serial (Workers 1) run for the same seed, on
// free and fixed-terminals instances. Run under -race in CI.
func TestParallelMultistartMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fixedFrac float64
	}{
		{"free", 0},
		{"fixed30", 0.30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := presetProblem(t, "IBM01S", 0.05, tc.fixedFrac)
			const starts = 6
			serial, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: starts}, rand.New(rand.NewPCG(7, 7)))
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := multilevel.Config{Workers: workers}
				par, err := solve(p, cfg, multilevel.Spec{Starts: starts}, rand.New(rand.NewPCG(7, 7)))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				sameResult(t, tc.name, serial, par)
			}
		})
	}
}

// TestParallelAdaptiveMatchesSerial checks the speculative-batch adaptive
// driver preserves the sequential stopping semantics exactly: same best
// result and same Starts count as the serial loop, for any worker count.
func TestParallelAdaptiveMatchesSerial(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0)
	for _, cfg := range []struct{ maxStarts, patience int }{
		{16, 2},
		{10, 3},
		{1, 1},
	} {
		serial, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: cfg.maxStarts, Patience: cfg.patience}, rand.New(rand.NewPCG(13, 13)))
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		for _, workers := range []int{1, 2, 8} {
			mlCfg := multilevel.Config{Workers: workers}
			par, err := solve(p, mlCfg, multilevel.Spec{Starts: cfg.maxStarts, Patience: cfg.patience}, rand.New(rand.NewPCG(13, 13)))
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			sameResult(t, "adaptive", serial, par)
		}
	}
}

// TestParallelMultistartSmallClusters covers the tiny-instance path (fewer
// starts than workers) and feasibility of the parallel result.
func TestParallelMultistartSmallClusters(t *testing.T) {
	h := clusters(2, 300, 6)
	p := partition.NewBipartition(h, 0.02)
	res, err := solve(p, multilevel.Config{Workers: 8}, multilevel.Spec{Starts: 3}, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := p.Feasible(res.Assignment); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if res.Starts != 3 {
		t.Errorf("Starts = %d, want 3", res.Starts)
	}
	if res.Cut != partition.Cut(h, res.Assignment) {
		t.Error("reported cut does not match assignment")
	}
}

// TestParallelMultistartError: an overconstrained instance must surface the
// same error the serial driver produces.
func TestParallelMultistartError(t *testing.T) {
	h := clusters(2, 40, 2)
	p := partition.NewBipartition(h, 0.02)
	for v := 0; v < h.NumVertices(); v++ {
		p.Fix(v, 0)
	}
	if _, err := solve(p, multilevel.Config{Workers: 4}, multilevel.Spec{Starts: 4}, rand.New(rand.NewPCG(6, 6))); err == nil {
		t.Error("want error for overconstrained instance")
	}
	if _, err := solve(p, multilevel.Config{Workers: 4}, multilevel.Spec{Starts: 8, Patience: 2}, rand.New(rand.NewPCG(6, 6))); err == nil {
		t.Error("adaptive: want error for overconstrained instance")
	}
}
