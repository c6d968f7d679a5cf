package fm_test

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/partition"
)

// goldenRun identifies one pinned engine run: a preset, a policy, and the
// fraction of vertices fixed (consistently with a deterministic random
// reference assignment) before refinement.
type goldenRun struct {
	preset   string
	policy   fm.Policy
	fixFrac  float64
	wantCut  int64
	wantHash uint64
}

// bipartitionGoldens pins the exact output of fm.Refine at k = 2 on the
// IBM01S–IBM05S presets. The values were recorded from the dedicated 2-way
// engine before it was generalized into the k-way kernel; the k = 2
// instantiation of the kernel must reproduce every run byte-for-byte
// (identical assignment, hence identical hash, hence identical cut).
var bipartitionGoldens = []goldenRun{
	{"IBM01S", fm.LIFO, 0, 451, 0xbf0bec3ad496ae69},
	{"IBM01S", fm.LIFO, 0.25, 1268, 0x850580b1a7d56d88},
	{"IBM01S", fm.CLIP, 0, 131, 0xf468971a8fb6f101},
	{"IBM01S", fm.CLIP, 0.25, 1270, 0x5b97532819e0625b},
	{"IBM02S", fm.LIFO, 0, 151, 0x4be5c2e2e3d44074},
	{"IBM02S", fm.LIFO, 0.25, 1946, 0x37118566ce9c5ae7},
	{"IBM02S", fm.CLIP, 0, 151, 0x91cf454e50e3159d},
	{"IBM02S", fm.CLIP, 0.25, 1870, 0x5794a4161b9591c8},
	{"IBM03S", fm.LIFO, 0, 309, 0xcb207cf37512b648},
	{"IBM03S", fm.LIFO, 0.25, 2154, 0xf27b71c17d5be857},
	{"IBM03S", fm.CLIP, 0, 376, 0x35d38566580de1cb},
	{"IBM03S", fm.CLIP, 0.25, 2230, 0xdba89d7317829cc},
	{"IBM04S", fm.LIFO, 0, 164, 0xfb5f71ee8957d207},
	{"IBM04S", fm.LIFO, 0.25, 2707, 0xb3636889093238e1},
	{"IBM04S", fm.CLIP, 0, 183, 0xb70886fc20daee4d},
	{"IBM04S", fm.CLIP, 0.25, 2639, 0x1dc5f666126a4bde},
	{"IBM05S", fm.LIFO, 0, 510, 0xdf020eb93c23c4d3},
	{"IBM05S", fm.LIFO, 0.25, 2831, 0xca4f70e5fa79dbcd},
	{"IBM05S", fm.CLIP, 0, 310, 0x5febe94a39d32863},
	{"IBM05S", fm.CLIP, 0.25, 3056, 0xde4d965af24cf64a},
}

// goldenProblem deterministically builds the preset instance, fixing regime
// and initial assignment for one golden run.
func goldenProblem(t *testing.T, g goldenRun) (*partition.Problem, partition.Assignment) {
	t.Helper()
	pre, err := gen.PresetByName(g.preset)
	if err != nil {
		t.Fatalf("preset %s: %v", g.preset, err)
	}
	nl, err := gen.Generate(pre.Params.Scaled(0.25))
	if err != nil {
		t.Fatalf("generate %s: %v", g.preset, err)
	}
	h := nl.H
	p := partition.NewBipartition(h, 0.02)
	rng := rand.New(rand.NewPCG(0x601d, pre.Params.Seed))
	if g.fixFrac > 0 {
		ref := make(partition.Assignment, h.NumVertices())
		for v := range ref {
			ref[v] = int8(rng.IntN(2))
		}
		n := int(g.fixFrac * float64(h.NumVertices()))
		for _, v := range rng.Perm(h.NumVertices())[:n] {
			p.Fix(v, int(ref[v]))
		}
	}
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		t.Fatalf("RandomFeasible %s: %v", g.preset, err)
	}
	return p, initial
}

func assignmentHash(a partition.Assignment) uint64 {
	hsh := fnv.New64a()
	buf := make([]byte, len(a))
	for i, p := range a {
		buf[i] = byte(p)
	}
	hsh.Write(buf)
	return hsh.Sum64()
}

// TestBipartitionGoldenPresets is the k=2 regression gate for the kernel
// refactor: on every preset, policy and fixing regime below, the refined
// assignment must match the pre-refactor engine exactly.
func TestBipartitionGoldenPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("golden presets are built at 1/4 scale but still sizable")
	}
	if len(bipartitionGoldens) == 0 {
		// Bootstrap mode: print the table to paste into bipartitionGoldens.
		for _, preset := range []string{"IBM01S", "IBM02S", "IBM03S", "IBM04S", "IBM05S"} {
			for _, policy := range []fm.Policy{fm.LIFO, fm.CLIP} {
				for _, frac := range []float64{0, 0.25} {
					g := goldenRun{preset: preset, policy: policy, fixFrac: frac}
					p, initial := goldenProblem(t, g)
					res, err := fm.Refine(p, initial, fm.Config{Policy: policy})
					if err != nil {
						t.Fatalf("%s %v: %v", preset, policy, err)
					}
					fmt.Printf("\t{%q, fm.%v, %v, %d, 0x%x},\n", preset, policy, frac, res.Cut, assignmentHash(res.Assignment))
				}
			}
		}
		t.Fatal("bipartitionGoldens is empty; paste the rows printed above")
	}
	for _, g := range bipartitionGoldens {
		name := fmt.Sprintf("%s/%v/fix%.0f%%", g.preset, g.policy, 100*g.fixFrac)
		t.Run(name, func(t *testing.T) {
			p, initial := goldenProblem(t, g)
			res, err := fm.Refine(p, initial, fm.Config{Policy: g.policy})
			if err != nil {
				t.Fatalf("Refine: %v", err)
			}
			if res.Cut != g.wantCut {
				t.Errorf("cut = %d, want %d", res.Cut, g.wantCut)
			}
			if h := assignmentHash(res.Assignment); h != g.wantHash {
				t.Errorf("assignment hash = 0x%x, want 0x%x", h, g.wantHash)
			}
		})
	}
}
