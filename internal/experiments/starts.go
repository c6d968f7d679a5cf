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
// running its independent (regime, fraction, trial) cells on cfg.Workers
// goroutines. Per-cell RNGs derive from the seed and cell index, so the
// study is deterministic for every worker count.
func StartsRequired(name string, h *hypergraph.Hypergraph, cfg SweepConfig) ([]StartsRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x57a7))
	base := partition.NewBipartition(h, cfg.Tolerance)
	best, err := solve(base, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts}, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: starts study on %s: %w", name, err)
	}
	sched, err := NewFixSchedule(h, 2, best.Assignment, rng)
	if err != nil {
		return nil, err
	}
	type job struct {
		prob   *partition.Problem
		starts int
		cut    int64
		err    error
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
		res, err := solve(jobs[i].prob, cfg.ML, 1, multilevel.Spec{Starts: 16, Patience: 2}, jrng)
		if err != nil {
			jobs[i].err = err
			return
		}
		jobs[i].starts = res.Starts
		jobs[i].cut = res.Cut
	})
	var rows []StartsRow
	j := 0
	for _, regime := range []Regime{Good, Rand} {
		for _, frac := range cfg.Fractions {
			var starts, cut float64
			for trial := 0; trial < cfg.Trials; trial++ {
				if jobs[j].err != nil {
					return nil, fmt.Errorf("experiments: starts study %v %.1f%%: %w", regime, 100*frac, jobs[j].err)
				}
				starts += float64(jobs[j].starts)
				cut += float64(jobs[j].cut)
				j++
			}
			rows = append(rows, StartsRow{
				Instance:  name,
				Regime:    regime,
				Fraction:  frac,
				AvgStarts: starts / float64(cfg.Trials),
				AvgCut:    cut / float64(cfg.Trials),
			})
		}
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
