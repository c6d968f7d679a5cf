package multilevel_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// solveGolden is one pinned outcome: the reported objectives, the number of
// starts that contributed and the FNV-1a hash of the winning assignment.
type solveGolden struct {
	Cut, KMinus1 int64
	Starts       int
	Hash         uint64
}

func goldenOf(res *multilevel.Result) solveGolden {
	f := fnv.New64a()
	for _, q := range res.Assignment {
		f.Write([]byte{byte(q)})
	}
	return solveGolden{Cut: res.Cut, KMinus1: res.KMinus1, Starts: res.Starts, Hash: f.Sum64()}
}

// goldenKWayProblem is the paper's fixed-fraction protocol at k = 4: a small
// IBM01S-shaped circuit with 20% of its vertices fixed to random parts.
func goldenKWayProblem(t *testing.T) *partition.Problem {
	t.Helper()
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewFree(nl.H, 4, 0.05)
	partition.ApplyFixFraction(p, 0.2, 17)
	return p
}

// TestSolveGoldens pins every multistart and descent shape to the exact
// results the engine produced before its drivers were folded into Solve:
// plain, adaptive and shared 2-way multistart, direct k-way km1 with fixed
// vertices and the hierarchy-cache warm path. Each shape runs at Workers 1 and 4, with the round and localized
// refinement stages off and on; the worker count must never move a value.
func TestSolveGoldens(t *testing.T) {
	p2 := presetProblem(t, "IBM01S", 0.05, 0.2)
	p4 := goldenKWayProblem(t)
	km1 := func(cfg multilevel.Config) multilevel.Config { cfg.Objective = fm.ObjectiveKM1; return cfg }
	shapes := []struct {
		name string
		run  func(cfg multilevel.Config) (*multilevel.Result, error)
		// want is indexed by stages: 0 = rounds and localized FM off, 1 = on.
		want [2]solveGolden
	}{
		{"multistart", func(cfg multilevel.Config) (*multilevel.Result, error) {
			return multilevel.Solve(context.Background(), p2, cfg, multilevel.Spec{Starts: 4}, rand.New(rand.NewPCG(11, 1)))
		}, [2]solveGolden{{207, 207, 4, 0xd8f55d8d2ea18cb5}, {210, 210, 4, 0xe4cf4413b217a08f}}},
		{"adaptive", func(cfg multilevel.Config) (*multilevel.Result, error) {
			return multilevel.Solve(context.Background(), p2, cfg, multilevel.Spec{Starts: 16, Patience: 2}, rand.New(rand.NewPCG(12, 1)))
		}, [2]solveGolden{{207, 207, 6, 0xc4048b4417505049}, {215, 215, 4, 0x9deaf04992d57104}}},
		{"shared", func(cfg multilevel.Config) (*multilevel.Result, error) {
			return multilevel.Solve(context.Background(), p2, cfg, multilevel.Spec{Starts: 6, Hierarchies: 2}, rand.New(rand.NewPCG(13, 1)))
		}, [2]solveGolden{{208, 208, 6, 0xb131ffd9a63b9d31}, {209, 209, 6, 0x5fdb7fcc5140ab1e}}},
		{"kway4-km1-fixed", func(cfg multilevel.Config) (*multilevel.Result, error) {
			return multilevel.Solve(context.Background(), p4, km1(cfg), multilevel.Spec{Starts: 2, KWay: true}, rand.New(rand.NewPCG(14, 1)))
		}, [2]solveGolden{{332, 408, 2, 0xc9b957da8daf5b33}, {298, 352, 2, 0x41182f3771b876df}}},
		{"on-hierarchies", func(cfg multilevel.Config) (*multilevel.Result, error) {
			hiers, err := multilevel.BuildHierarchies(context.Background(), p2, cfg, 2, 15)
			if err != nil {
				return nil, err
			}
			return multilevel.MultistartOnHierarchies(context.Background(), hiers, cfg, 5, 16)
		}, [2]solveGolden{{208, 208, 5, 0x3fd35082da3e64ce}, {211, 211, 5, 0x3a3930eb3c00d671}}},
	}
	for _, sh := range shapes {
		for stages := 0; stages < 2; stages++ {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/stages%d/workers%d", sh.name, stages, workers), func(t *testing.T) {
					cfg := multilevel.Config{Workers: workers, CoarsenWorkers: workers}
					if stages == 1 {
						cfg.RefineWorkers, cfg.LocalizedFMWorkers = workers, workers
					}
					res, err := sh.run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := goldenOf(res); got != sh.want[stages] {
						t.Errorf("got %#v, want %#v", got, sh.want[stages])
					}
				})
			}
		}
	}
}
