package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/stats"
)

// ConstraintRow relates constraint-strength measures to observed instance
// easiness at one fixing level. The paper's conclusion asks how to measure
// "the strength of fixed terminals, or alternatively the degree of
// constraint in particular problem instances"; this study pairs the
// invariant measures of partition.Constrainedness with the multistart
// benefit (1-start over 8-start average cut — near 1 means easy).
type ConstraintRow struct {
	Instance string
	Regime   Regime
	Fraction float64
	Report   partition.ConstraintReport
	// StartsBenefit is avg(1-start cut)/avg(8-start cut).
	StartsBenefit float64
	// AvgCut is the 1-start average cut.
	AvgCut float64
}

// ConstraintStudy measures constraint strength and easiness across fixing
// levels for both regimes. Its (regime, fraction, trial) cells run on
// cfg.Workers goroutines through runCells, so the study is deterministic for
// every worker count.
func ConstraintStudy(name string, h *hypergraph.Hypergraph, cfg SweepConfig) ([]ConstraintRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xc057))
	fx, err := newFixture(h, 2, cfg.Tolerance, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: constraint study on %s: %w", name, err)
	}
	gs := fx.groups(cfg.Fractions, Good, Rand)
	// Each cell returns its 1-start and 8-start cuts, drawn from one stream.
	cells, err := runCells(gs, cfg.Trials, rng.Uint64(), cfg.Workers, func(g group, _ int, rng func() *rand.Rand) ([2]int64, error) {
		jrng := rng()
		r1, err := multilevel.Partition(g.prob, cfg.ML, jrng)
		if err != nil {
			return [2]int64{}, err
		}
		r8, err := solve(g.prob, cfg.ML, 1, multilevel.Spec{Starts: 8}, jrng)
		if err != nil {
			return [2]int64{}, err
		}
		return [2]int64{r1.Cut, r8.Cut}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: constraint study on %s: %w", name, err)
	}
	var rows []ConstraintRow
	for gi, g := range gs {
		var one, eight float64
		for _, c := range cells[gi*cfg.Trials : (gi+1)*cfg.Trials] {
			one += float64(c[0])
			eight += float64(c[1])
		}
		row := ConstraintRow{
			Instance: name,
			Regime:   g.regime,
			Fraction: g.frac,
			Report:   partition.Constrainedness(g.prob),
			AvgCut:   one / float64(cfg.Trials),
		}
		if eight > 0 {
			row.StartsBenefit = one / eight
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderConstraintStudy writes the study as a table.
func RenderConstraintStudy(w io.Writer, rows []ConstraintRow) error {
	fmt.Fprintf(w, "Constraint study: invariant constraint measures vs multistart benefit\n")
	fmt.Fprintf(w, "(netfix = constrained-net fraction, touch = touched-free fraction,\n")
	fmt.Fprintf(w, " forced = forced-cut lower bound, 1v8 = 1-start/8-start avg cut)\n\n")
	t := &stats.Table{Header: []string{"instance", "regime", "%fixed", "netfix", "touch", "forced", "avg cut", "1v8"}}
	for _, r := range rows {
		t.Add(r.Instance, r.Regime.String(), fmt.Sprintf("%.1f", 100*r.Fraction),
			fmt.Sprintf("%.3f", r.Report.ConstrainedNetFraction),
			fmt.Sprintf("%.3f", r.Report.TouchedFreeFraction),
			r.Report.ForcedCut,
			fmt.Sprintf("%.1f", r.AvgCut),
			fmt.Sprintf("%.3f", r.StartsBenefit))
	}
	return t.Render(w)
}
