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
// fraction. Cells run on cfg.Workers goroutines through runCells, so results
// are identical for every worker count.
func ObjectiveStudy(name string, h *hypergraph.Hypergraph, ks []int, cfg SweepConfig) ([]ObjectiveRow, error) {
	cfg = cfg.withDefaults()
	if len(ks) == 0 {
		ks = []int{2, 4, 8}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x0b7ec))
	var gs []group
	for _, k := range ks {
		fx, err := newFixture(h, k, cfg.Tolerance, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts, KWay: true}, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: objective study reference (k=%d): %w", k, err)
		}
		gs = append(gs, fx.groups(cfg.Fractions, Good)...)
	}
	// Each cell returns its cut-optimized and km1-optimized winners. Both
	// optimizers run on a fresh generator of the cell's stream, so they
	// evaluate the identical candidate starts and differ only in which one
	// they keep.
	cutCfg, km1Cfg := cfg.ML, cfg.ML
	cutCfg.Objective = fm.ObjectiveCut
	km1Cfg.Objective = fm.ObjectiveKM1
	spec := multilevel.Spec{Starts: objectiveStarts, KWay: true}
	cells, err := runCells(gs, cfg.Trials, rng.Uint64(), cfg.Workers, func(g group, _ int, rng func() *rand.Rand) ([2]*multilevel.Result, error) {
		cut, err := solve(g.prob, cutCfg, 1, spec, rng())
		if err != nil {
			return [2]*multilevel.Result{}, err
		}
		km1, err := solve(g.prob, km1Cfg, 1, spec, rng())
		return [2]*multilevel.Result{cut, km1}, err
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: objective study on %s: %w", name, err)
	}
	var rows []ObjectiveRow
	n := float64(cfg.Trials)
	for gi, g := range gs {
		row := ObjectiveRow{Instance: name, K: g.prob.K, Fraction: g.frac}
		for _, c := range cells[gi*cfg.Trials : (gi+1)*cfg.Trials] {
			row.CutOptCut += float64(c[0].Cut)
			row.CutOptKM1 += float64(c[0].KMinus1)
			row.CutOptSOED += float64(c[0].SOED)
			row.KM1OptCut += float64(c[1].Cut)
			row.KM1OptKM1 += float64(c[1].KMinus1)
			row.KM1OptSOED += float64(c[1].SOED)
		}
		row.CutOptCut /= n
		row.CutOptKM1 /= n
		row.CutOptSOED /= n
		row.KM1OptCut /= n
		row.KM1OptKM1 /= n
		row.KM1OptSOED /= n
		rows = append(rows, row)
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
