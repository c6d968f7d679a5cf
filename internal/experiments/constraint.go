package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/par"
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
// levels for both regimes. Independent (regime, fraction, trial) cells run
// on cfg.Workers goroutines with index-derived RNGs, so the study is
// deterministic for every worker count.
func ConstraintStudy(name string, h *hypergraph.Hypergraph, cfg SweepConfig) ([]ConstraintRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xc057))
	base := partition.NewBipartition(h, cfg.Tolerance)
	bestRes, err := solve(base, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: constraint study on %s: %w", name, err)
	}
	sched, err := NewFixSchedule(h, 2, bestRes.Assignment, rng)
	if err != nil {
		return nil, err
	}
	type job struct {
		prob       *partition.Problem
		one, eight int64
		err        error
	}
	cellSeed := rng.Uint64()
	var jobs []job
	for _, regime := range []Regime{Good, Rand} {
		for _, frac := range cfg.Fractions {
			prob := sched.Apply(base, frac, regime)
			for trial := 0; trial < cfg.Trials; trial++ {
				jobs = append(jobs, job{prob: prob})
			}
		}
	}
	par.ForEach(len(jobs), cfg.Workers, func(i int) {
		jrng := rand.New(rand.NewPCG(cellSeed, uint64(i)))
		r1, err := multilevel.Partition(jobs[i].prob, cfg.ML, jrng)
		if err != nil {
			jobs[i].err = err
			return
		}
		jobs[i].one = r1.Cut
		r8, err := solve(jobs[i].prob, cfg.ML, 1, multilevel.Spec{Starts: 8}, jrng)
		if err != nil {
			jobs[i].err = err
			return
		}
		jobs[i].eight = r8.Cut
	})
	var rows []ConstraintRow
	j := 0
	for _, regime := range []Regime{Good, Rand} {
		for _, frac := range cfg.Fractions {
			prob := jobs[j].prob
			var one, eight float64
			for trial := 0; trial < cfg.Trials; trial++ {
				if jobs[j].err != nil {
					return nil, fmt.Errorf("experiments: constraint study %v %.1f%%: %w", regime, 100*frac, jobs[j].err)
				}
				one += float64(jobs[j].one)
				eight += float64(jobs[j].eight)
				j++
			}
			row := ConstraintRow{
				Instance: name,
				Regime:   regime,
				Fraction: frac,
				Report:   partition.Constrainedness(prob),
				AvgCut:   one / float64(cfg.Trials),
			}
			if eight > 0 {
				row.StartsBenefit = one / eight
			}
			rows = append(rows, row)
		}
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
