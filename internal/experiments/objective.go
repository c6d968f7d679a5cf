package experiments

import (
	"fmt"
	"io"
	"math/rand/v2"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/stats"
)

// ObjectiveRow compares, for one (k, fixed fraction) cell, what a multistart
// run returns when it optimizes the cut versus connectivity-minus-one. Both
// optimizers see the identical set of candidate starts (same seeds, and the
// kernel's move trajectory is objective-independent — see fm.Objective), so
// the comparison isolates pure selection pressure: the km1 optimizer's mean
// km1 can never exceed the cut optimizer's, and vice versa for the cut.
// All three standard metrics of each winner are reported.
type ObjectiveRow struct {
	Instance string
	K        int
	Fraction float64
	// CutOpt* are the mean cut/km1/soed of the cut-optimized winners.
	CutOptCut, CutOptKM1, CutOptSOED float64
	// KM1Opt* are the mean cut/km1/soed of the km1-optimized winners.
	KM1OptCut, KM1OptKM1, KM1OptSOED float64
}

// objectiveStarts is the multistart count per cell: selection pressure only
// exists with several candidates to choose between.
const objectiveStarts = 4

// ObjectiveStudy measures cut-optimized versus km1-optimized multistart
// partitioning across part counts and fixing levels. At k = 2 the two
// objectives coincide (every net spans at most two parts), so those rows are
// a built-in control: the columns must agree. Fixed vertices follow the Good
// regime of a reference k-way solution so the fixing is satisfiable at every
// fraction. Cells run on cfg.Workers goroutines with per-cell RNGs derived
// from the seed and cell index, so results are identical for every worker
// count.
func ObjectiveStudy(name string, h *hypergraph.Hypergraph, ks []int, cfg SweepConfig) ([]ObjectiveRow, error) {
	cfg = cfg.withDefaults()
	if len(ks) == 0 {
		ks = []int{2, 4, 8}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x0b7ec))
	type cell struct {
		k    int
		frac float64
		prob *partition.Problem
		cut  *multilevel.Result // cut-optimized winner
		km1  *multilevel.Result // km1-optimized winner
		err  error
	}
	var cells []cell
	for _, k := range ks {
		base := partition.NewFree(h, k, cfg.Tolerance)
		ref, err := solve(base, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts, KWay: true}, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: objective study reference (k=%d): %w", k, err)
		}
		sched, err := NewFixSchedule(h, k, ref.Assignment, rng)
		if err != nil {
			return nil, err
		}
		for _, frac := range cfg.Fractions {
			prob := sched.Apply(base, frac, Good)
			for trial := 0; trial < cfg.Trials; trial++ {
				cells = append(cells, cell{k: k, frac: frac, prob: prob})
			}
		}
	}
	cellSeed := rng.Uint64()
	par.ForEach(len(cells), cfg.Workers, func(i int) {
		c := &cells[i]
		// Both optimizers run on a fresh RNG with the same derivation, so
		// they evaluate the identical candidate starts and differ only in
		// which one they keep.
		cutCfg, km1Cfg := cfg.ML, cfg.ML
		cutCfg.Objective = fm.ObjectiveCut
		km1Cfg.Objective = fm.ObjectiveKM1
		c.cut, c.err = solve(c.prob, cutCfg, 1, multilevel.Spec{Starts: objectiveStarts, KWay: true}, rand.New(rand.NewPCG(cellSeed, uint64(i))))
		if c.err != nil {
			return
		}
		c.km1, c.err = solve(c.prob, km1Cfg, 1, multilevel.Spec{Starts: objectiveStarts, KWay: true}, rand.New(rand.NewPCG(cellSeed, uint64(i))))
	})
	var rows []ObjectiveRow
	i := 0
	for _, k := range ks {
		for _, frac := range cfg.Fractions {
			row := ObjectiveRow{Instance: name, K: k, Fraction: frac}
			for trial := 0; trial < cfg.Trials; trial++ {
				c := &cells[i]
				if c.err != nil {
					return nil, fmt.Errorf("experiments: objective cell k=%d %.1f%%: %w", k, 100*frac, c.err)
				}
				row.CutOptCut += float64(c.cut.Cut)
				row.CutOptKM1 += float64(c.cut.KMinus1)
				row.CutOptSOED += float64(c.cut.SOED)
				row.KM1OptCut += float64(c.km1.Cut)
				row.KM1OptKM1 += float64(c.km1.KMinus1)
				row.KM1OptSOED += float64(c.km1.SOED)
				i++
			}
			n := float64(cfg.Trials)
			row.CutOptCut /= n
			row.CutOptKM1 /= n
			row.CutOptSOED /= n
			row.KM1OptCut /= n
			row.KM1OptKM1 /= n
			row.KM1OptSOED /= n
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderObjectiveStudy writes the study as a table.
func RenderObjectiveStudy(w io.Writer, rows []ObjectiveRow) error {
	fmt.Fprintf(w, "Cut-optimized vs km1-optimized multistart (%d starts/cell): mean cut/km1/soed by part count and %%fixed\n\n", objectiveStarts)
	t := &stats.Table{Header: []string{"instance", "k", "%fixed",
		"cut-opt cut", "cut-opt km1", "cut-opt soed",
		"km1-opt cut", "km1-opt km1", "km1-opt soed"}}
	for _, r := range rows {
		t.Add(r.Instance, fmt.Sprintf("%d", r.K), fmt.Sprintf("%.1f", 100*r.Fraction),
			fmt.Sprintf("%.1f", r.CutOptCut), fmt.Sprintf("%.1f", r.CutOptKM1), fmt.Sprintf("%.1f", r.CutOptSOED),
			fmt.Sprintf("%.1f", r.KM1OptCut), fmt.Sprintf("%.1f", r.KM1OptKM1), fmt.Sprintf("%.1f", r.KM1OptSOED))
	}
	return t.Render(w)
}
