package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/stats"
)

// PassProfileRow summarizes where LIFO-FM passes peak at one fixing level:
// Deciles[i] is the fraction of improving passes (after the first) whose
// best prefix — the point the pass is rolled back to — lies within the first
// (i+1)*10% of the pass's moves. The paper's Section III motivation, "with
// more fixed terminals, the improvements in a pass are more likely to occur
// near the beginning of the pass", appears as the early deciles approaching
// 1: the cumulative-gain curve peaks almost immediately and every later move
// is wasted.
type PassProfileRow struct {
	Instance string
	Fraction float64
	Deciles  [10]float64
	Passes   int // improving passes contributing to the distribution
	// MeanPeak is the average relative position (Kept/Moves) of the best
	// prefix.
	MeanPeak float64
}

// PassProfile runs the pass-shape study on h in the Good regime.
func PassProfile(name string, h *hypergraph.Hypergraph, cfg FlatConfig) ([]PassProfileRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9a55))
	fx, err := cfg.fixture(h, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: pass profile on %s: %w", name, err)
	}
	var rows []PassProfileRow
	for _, frac := range cfg.Fractions {
		prob := fx.sched.Apply(fx.base, frac, Good)
		row := PassProfileRow{Instance: name, Fraction: frac}
		var peakSum float64
		for run := 0; run < cfg.Runs; run++ {
			res, err := fm.RunFromRandom(prob, fm.Config{Policy: fm.LIFO}, rng)
			if err != nil {
				return nil, fmt.Errorf("experiments: pass profile on %s at %.1f%%: %w", name, 100*frac, err)
			}
			for i, ps := range res.Passes {
				if i == 0 || ps.Gain <= 0 || ps.Moves == 0 {
					continue
				}
				pos := float64(ps.Kept) / float64(ps.Moves)
				peakSum += pos
				for d := 0; d < 10; d++ {
					if pos <= float64(d+1)/10 {
						row.Deciles[d]++
					}
				}
				row.Passes++
			}
		}
		if row.Passes > 0 {
			for d := range row.Deciles {
				row.Deciles[d] /= float64(row.Passes)
			}
			row.MeanPeak = peakSum / float64(row.Passes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPassProfile writes the study as a table: the CDF of best-prefix
// positions, one decile per column, plus the mean peak position.
func RenderPassProfile(w io.Writer, rows []PassProfileRow) error {
	fmt.Fprintf(w, "Pass peak positions (good regime, LIFO-FM, improving passes after the\n")
	fmt.Fprintf(w, "first): fraction of passes whose best prefix falls within the first d%% of\n")
	fmt.Fprintf(w, "moves — early peaks mean late moves are wasted and cutoffs are safe\n\n")
	header := []string{"instance", "%fixed", "passes", "mean peak"}
	for d := 1; d <= 10; d++ {
		header = append(header, fmt.Sprintf("<=%d0%%", d))
	}
	t := &stats.Table{Header: header}
	for _, r := range rows {
		row := []any{r.Instance, fmt.Sprintf("%.1f", 100*r.Fraction), r.Passes,
			fmt.Sprintf("%.3f", r.MeanPeak)}
		for _, v := range r.Deciles {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		t.Add(row...)
	}
	return t.Render(w)
}
