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

// KWayModeRow compares, for one (k, fixed fraction) cell, the two ways this
// engine reaches a k-way partition: direct k-way V-cycling (coarsen the full
// problem once, refine k-way at every level) versus recursive multilevel
// bisection with a final direct k-way FM polish. Cuts are averaged over
// cfg.Trials independent single starts per mode.
type KWayModeRow struct {
	Instance  string
	K         int
	Fraction  float64
	DirectCut float64
	RBCut     float64
}

// KWayModeStudy measures direct k-way versus recursive bisection across part
// counts and fixing levels, the engine-side counterpart of the issue's
// acceptance bar (direct mean cut <= rb's). Fixed vertices follow the Good
// regime of a reference k-way solution so the fixing is satisfiable at every
// fraction. Cells run on cfg.Workers goroutines with per-cell RNGs derived
// from the seed and cell index, so results are identical for every worker
// count.
func KWayModeStudy(name string, h *hypergraph.Hypergraph, ks []int, cfg SweepConfig) ([]KWayModeRow, error) {
	cfg = cfg.withDefaults()
	if len(ks) == 0 {
		ks = []int{3, 4}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x4b3a))
	type cell struct {
		k      int
		frac   float64
		prob   *partition.Problem
		direct int64
		rb     int64
		err    error
	}
	var cells []cell
	for _, k := range ks {
		base := partition.NewFree(h, k, cfg.Tolerance)
		ref, err := solve(base, cfg.ML, cfg.Workers, multilevel.Spec{Starts: cfg.GoodStarts, KWay: true}, rng)
		if err != nil {
			return nil, fmt.Errorf("experiments: k-way mode study reference (k=%d): %w", k, err)
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
		dres, err := multilevel.PartitionKWay(c.prob, cfg.ML, rand.New(rand.NewPCG(cellSeed, uint64(2*i))))
		if err != nil {
			c.err = err
			return
		}
		rres, err := multilevel.RecursiveBisect(c.prob, cfg.ML, rand.New(rand.NewPCG(cellSeed, uint64(2*i+1))))
		if err != nil {
			c.err = err
			return
		}
		polish, err := fmKWayPolish(c.prob, rres.Assignment, cfg.ML)
		if err != nil {
			c.err = err
			return
		}
		c.direct = dres.Cut
		c.rb = polish
	})
	var rows []KWayModeRow
	i := 0
	for _, k := range ks {
		for _, frac := range cfg.Fractions {
			var direct, rb float64
			for trial := 0; trial < cfg.Trials; trial++ {
				if cells[i].err != nil {
					return nil, fmt.Errorf("experiments: k-way mode cell k=%d %.1f%%: %w", k, 100*frac, cells[i].err)
				}
				direct += float64(cells[i].direct)
				rb += float64(cells[i].rb)
				i++
			}
			rows = append(rows, KWayModeRow{
				Instance:  name,
				K:         k,
				Fraction:  frac,
				DirectCut: direct / float64(cfg.Trials),
				RBCut:     rb / float64(cfg.Trials),
			})
		}
	}
	return rows, nil
}

// fmKWayPolish applies the rb mode's final direct k-way FM refinement and
// returns the polished cut.
func fmKWayPolish(p *partition.Problem, a partition.Assignment, ml multilevel.Config) (int64, error) {
	cfg := ml
	res, err := fm.KWayPartition(p, a, fm.Config{Policy: fm.CLIP, MaxPassFraction: cfg.MaxPassFraction})
	if err != nil {
		return 0, err
	}
	return res.Cut, nil
}

// RenderKWayModeStudy writes the study as a table.
func RenderKWayModeStudy(w io.Writer, rows []KWayModeRow) error {
	fmt.Fprintf(w, "Direct k-way vs recursive bisection: mean cut by part count and %%fixed\n\n")
	t := &stats.Table{Header: []string{"instance", "k", "%fixed", "direct cut", "rb cut"}}
	for _, r := range rows {
		t.Add(r.Instance, fmt.Sprintf("%d", r.K), fmt.Sprintf("%.1f", 100*r.Fraction),
			fmt.Sprintf("%.1f", r.DirectCut), fmt.Sprintf("%.1f", r.RBCut))
	}
	return t.Render(w)
}
