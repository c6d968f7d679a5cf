package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/stats"
)

// StartsRow reports, for one regime and fixing level, the multistart effort
// an adaptive policy actually spends: the paper's question 3 asks for
// "guidelines as to the effort (e.g., with respect to a multistart regime)
// required ... when a given proportion of vertices in the instance are
// fixed."
type StartsRow struct {
	Instance string
	Regime   Regime
	Fraction float64
	// AvgStarts is the average number of starts the adaptive policy used
	// (patience 2, up to 16) before concluding further starts were futile.
	AvgStarts float64
	// AvgCut is the average best cut the adaptive policy returned.
	AvgCut float64
}

// StartsRequired measures adaptive multistart effort across fixing levels,
// running its (regime, fraction, trial) cells on cfg.Workers goroutines
// through runCells, so the study is deterministic for every worker count.
func StartsRequired(name string, h *hypergraph.Hypergraph, cfg SweepConfig) ([]StartsRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x57a7))
	fx, err := newFixture(h, 2, cfg.Tolerance, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: starts study on %s: %w", name, err)
	}
	gs := fx.groups(cfg.Fractions, Good, Rand)
	cells, err := runCells(gs, cfg.Trials, rng.Uint64(), cfg.Workers, func(g group, _ int, rng func() *rand.Rand) (*multilevel.Result, error) {
		return solve(g.prob, cfg.ML, 1, multilevel.Spec{Starts: 16, Patience: 2}, rng())
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: starts study on %s: %w", name, err)
	}
	var rows []StartsRow
	for gi, g := range gs {
		var starts, cut float64
		for _, r := range cells[gi*cfg.Trials : (gi+1)*cfg.Trials] {
			starts += float64(r.Starts)
			cut += float64(r.Cut)
		}
		rows = append(rows, StartsRow{
			Instance:  name,
			Regime:    g.regime,
			Fraction:  g.frac,
			AvgStarts: starts / float64(cfg.Trials),
			AvgCut:    cut / float64(cfg.Trials),
		})
	}
	return rows, nil
}

// RenderStartsRequired writes the study as a table.
func RenderStartsRequired(w io.Writer, rows []StartsRow) error {
	fmt.Fprintf(w, "Multistart effort: adaptive starts used (patience 2, max 16) vs %%fixed\n\n")
	t := &stats.Table{Header: []string{"instance", "regime", "%fixed", "avg starts", "avg cut"}}
	for _, r := range rows {
		t.Add(r.Instance, r.Regime.String(), fmt.Sprintf("%.1f", 100*r.Fraction),
			fmt.Sprintf("%.1f", r.AvgStarts), fmt.Sprintf("%.1f", r.AvgCut))
	}
	return t.Render(w)
}
