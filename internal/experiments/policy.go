package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/stats"
)

// PolicyRow compares the multilevel engine's two FM refinement disciplines
// at one fixing level: the average cut of single multilevel starts under
// CLIP (the engine default) and under LIFO.
type PolicyRow struct {
	Instance string
	Fraction float64
	CLIPCut  float64
	LIFOCut  float64
}

// PolicyStudy runs the CLIP-vs-LIFO ablation on h in the Good regime (the
// paper reports LIFO gives "very similar results"). Each of cfg.Runs runs
// draws one seed and solves the instance once per policy from that seed,
// so both policies refine the same coarsening hierarchy. cfg.ML configures
// both engines; only its Policy differs.
func PolicyStudy(name string, h *hypergraph.Hypergraph, cfg FlatConfig) ([]PolicyRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9011c7))
	fx, err := cfg.fixture(h, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: policy study on %s: %w", name, err)
	}
	var rows []PolicyRow
	for _, frac := range cfg.Fractions {
		prob := fx.sched.Apply(fx.base, frac, Good)
		var cuts [2]float64 // CLIP, LIFO
		for run := 0; run < cfg.Runs; run++ {
			seed := rng.Uint64()
			for i, policy := range []fm.Policy{fm.CLIP, fm.LIFO} {
				ml := cfg.ML
				ml.Policy = policy
				res, err := multilevel.Partition(prob, ml, rand.New(rand.NewPCG(seed, 0)))
				if err != nil {
					return nil, fmt.Errorf("experiments: policy study on %s at %.1f%%: %w", name, 100*frac, err)
				}
				cuts[i] += float64(res.Cut)
			}
		}
		runs := float64(cfg.Runs)
		rows = append(rows, PolicyRow{Instance: name, Fraction: frac, CLIPCut: cuts[0] / runs, LIFOCut: cuts[1] / runs})
	}
	return rows, nil
}

// RenderPolicy writes the policy study rows with the CLIP/LIFO cut ratio.
func RenderPolicy(w io.Writer, rows []PolicyRow) error {
	fmt.Fprintf(w, "Refinement policy: average cut of single multilevel starts, CLIP vs LIFO (good regime)\n\n")
	t := &stats.Table{Header: []string{"instance", "%fixed", "CLIP cut", "LIFO cut", "CLIP/LIFO"}}
	for _, r := range rows {
		ratio := "-"
		if r.LIFOCut > 0 {
			ratio = fmt.Sprintf("%.3f", r.CLIPCut/r.LIFOCut)
		}
		t.Add(r.Instance, fmt.Sprintf("%.1f", 100*r.Fraction),
			fmt.Sprintf("%.1f", r.CLIPCut), fmt.Sprintf("%.1f", r.LIFOCut), ratio)
	}
	return t.Render(w)
}
