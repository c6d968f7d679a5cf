// Benchmark harness: one benchmark per table and figure of the paper. Each
// benchmark regenerates its table/figure at a reduced default scale and
// prints the rows/series once; headline numbers are also reported as custom
// benchmark metrics so regressions show up in -bench output.
//
// Environment knobs:
//
//	REPRO_SCALE  circuit scale factor (default 0.2; the paper's circuits are 1.0)
//	REPRO_TRIALS trials per data point (default 3; the paper uses 50)
//	REPRO_FULL=1 run Tables II-IV over all five circuits instead of IBM01S
//
// Absolute CPU numbers are host wall-clock (the paper's were 1990s Sun
// workstations); only the relative shapes are meaningful.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/place"
	"repro/internal/rent"
)

// solve runs multilevel.Solve without cancellation.
func solve(p *partition.Problem, cfg multilevel.Config, spec multilevel.Spec, rng *rand.Rand) (*multilevel.Result, error) {
	return multilevel.Solve(context.Background(), p, cfg, spec, rng)
}

func envFloat(name string, def float64) float64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return def
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func benchScale() float64 { return envFloat("REPRO_SCALE", 0.2) }
func benchTrials() int    { return envInt("REPRO_TRIALS", 3) }

func benchCircuits() []string {
	if os.Getenv("REPRO_FULL") == "1" {
		return []string{"IBM01S", "IBM02S", "IBM03S", "IBM04S", "IBM05S"}
	}
	return []string{"IBM01S"}
}

func mustNetlist(b *testing.B, name string, scale float64) *gen.Netlist {
	b.Helper()
	pr, err := gen.PresetByName(name)
	if err != nil {
		b.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		b.Fatal(err)
	}
	return nl
}

// BenchmarkTableI regenerates Table I (block-size thresholds from Rent's
// rule); it is analytic and fast.
func BenchmarkTableI(b *testing.B) {
	var rows []rent.TableIRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = rent.TableI([]float64{0.50, 0.60, 0.68, 0.75}, rent.DefaultPinsPerCell)
		if err != nil {
			b.Fatal(err)
		}
	}
	tableIOnce.Do(func() {
		experiments.RenderTableI(os.Stdout, []float64{0.50, 0.60, 0.68, 0.75}, rent.DefaultPinsPerCell)
	})
	// Headline: the 20% threshold at p=0.68 sits in the thousands of cells.
	b.ReportMetric(rows[2].Cells20Pct, "cells@p0.68,20%fixed")
}

var (
	tableIOnce   sync.Once
	fig1Once     sync.Once
	fig2Once     sync.Once
	tableIIOnce  sync.Once
	tableIIIOnce sync.Once
	tableIVOnce  sync.Once
	multiwayOnce sync.Once
)

// benchFigure runs the Figure 1/2 multistart sweep protocol.
func benchFigure(b *testing.B, name string, once *sync.Once) {
	nl := mustNetlist(b, name, benchScale())
	b.ResetTimer()
	var res *experiments.SweepResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunSweep(name, nl.H, experiments.SweepConfig{
			Trials: benchTrials(),
			Seed:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	once.Do(func() { experiments.RenderSweep(os.Stdout, res, []int{1, 2, 4, 8}) })
	// Headline shape metrics: the 1-start/8-start quality gap collapses as
	// terminals are fixed (easiness), and runtime falls. The good regime is
	// used for the quality ratios because the rand regime renormalizes per
	// fraction and is noisier at small trial counts.
	b.ReportMetric(res.StartsBenefit(experiments.Good, 0), "1v8start-ratio@0%")
	b.ReportMetric(res.StartsBenefit(experiments.Good, 0.30), "1v8start-ratio@30%")
	g0 := res.Point(experiments.Good, 0, 1)
	g50 := res.Point(experiments.Good, 0.50, 1)
	if g0 != nil && g50 != nil && g50.AvgCPU > 0 {
		b.ReportMetric(float64(g0.AvgCPU)/float64(g50.AvgCPU), "cpu-ratio@0%v50%")
	}
	p0 := res.Point(experiments.Rand, 0, 1)
	p30 := res.Point(experiments.Rand, 0.30, 1)
	if p0 != nil && p30 != nil {
		b.ReportMetric(p30.AvgBestCut/math.Max(p0.AvgBestCut, 1), "rand-cut-growth@30%")
	}
}

// BenchmarkFig1 regenerates Figure 1 (IBM01): raw/normalized cut and CPU vs
// percentage of fixed vertices, for 1/2/4/8 starts, good and rand regimes.
func BenchmarkFig1(b *testing.B) { benchFigure(b, "IBM01S", &fig1Once) }

// BenchmarkFig2 regenerates Figure 2 (IBM03).
func BenchmarkFig2(b *testing.B) { benchFigure(b, "IBM03S", &fig2Once) }

// BenchmarkTableII regenerates Table II: LIFO-FM passes per run and
// percentage of nodes moved per pass vs percentage of fixed vertices.
func BenchmarkTableII(b *testing.B) {
	type data struct {
		name string
		nl   *gen.Netlist
	}
	var circuits []data
	for _, name := range benchCircuits() {
		circuits = append(circuits, data{name, mustNetlist(b, name, benchScale())})
	}
	fractions := []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50}
	b.ResetTimer()
	var rows []experiments.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, c := range circuits {
			r, err := experiments.TableII(c.name, c.nl.H, experiments.FlatConfig{
				Fractions: fractions,
				Runs:      20,
				Seed:      2,
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
	}
	b.StopTimer()
	tableIIOnce.Do(func() { experiments.RenderTableII(os.Stdout, rows) })
	b.ReportMetric(rows[0].AvgPctMoved, "%moved@0%fixed")
	b.ReportMetric(rows[len(fractions)-1].AvgPctMoved, "%moved@50%fixed")
}

// BenchmarkTableIII regenerates Table III: effect of pass cutoffs on average
// cut and CPU for single LIFO-FM starts.
func BenchmarkTableIII(b *testing.B) {
	cutoffs := experiments.DefaultCutoffs()
	fractions := []float64{0, 0.10, 0.30, 0.50}
	type data struct {
		name string
		nl   *gen.Netlist
	}
	var circuits []data
	for _, name := range benchCircuits() {
		circuits = append(circuits, data{name, mustNetlist(b, name, benchScale())})
	}
	b.ResetTimer()
	var rows []experiments.TableIIIRow
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, c := range circuits {
			r, err := experiments.TableIII(c.name, c.nl.H, cutoffs, experiments.FlatConfig{
				Fractions: fractions,
				Runs:      20,
				Seed:      3,
			})
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r...)
		}
	}
	b.StopTimer()
	tableIIIOnce.Do(func() { experiments.RenderTableIII(os.Stdout, rows, cutoffs) })
	// Headline: CPU saving and quality effect of the 5% cutoff at 0% and 30%.
	find := func(frac, cutoff float64) *experiments.TableIIIRow {
		for i := range rows {
			if rows[i].Instance == benchCircuits()[0] && rows[i].Fraction == frac && rows[i].Cutoff == cutoff {
				return &rows[i]
			}
		}
		return nil
	}
	if full, cut := find(0.30, 1), find(0.30, 0.05); full != nil && cut != nil && cut.AvgCut > 0 {
		b.ReportMetric(cut.AvgCut/full.AvgCut, "cutQ-ratio@30%")
		b.ReportMetric(float64(full.AvgCPU)/float64(cut.AvgCPU), "speedup@30%")
	}
	if full, cut := find(0, 1), find(0, 0.05); full != nil && cut != nil && full.AvgCut > 0 {
		b.ReportMetric(cut.AvgCut/full.AvgCut, "cutQ-ratio@0%")
	}
}

// BenchmarkTableIV regenerates Table IV: the parameters of the
// placement-derived fixed-terminals benchmark suite.
func BenchmarkTableIV(b *testing.B) {
	type data struct {
		name string
		nl   *gen.Netlist
	}
	var circuits []data
	for _, name := range benchCircuits() {
		circuits = append(circuits, data{name, mustNetlist(b, name, benchScale())})
	}
	b.ResetTimer()
	var rows []experiments.TableIVRow
	for i := 0; i < b.N; i++ {
		var instances []*benchgen.Instance
		for _, c := range circuits {
			pl, err := benchPlace(c.nl, 4)
			if err != nil {
				b.Fatal(err)
			}
			for _, spec := range benchgen.StandardSpecs(pl, c.name) {
				inst, err := benchgen.Derive(pl, spec, 0.02)
				if err != nil {
					b.Fatal(err)
				}
				instances = append(instances, inst)
			}
		}
		rows = experiments.TableIV(instances)
	}
	b.StopTimer()
	tableIVOnce.Do(func() { experiments.RenderTableIV(os.Stdout, rows) })
	// Headline: derived half-chip blocks carry a nontrivial fixed fraction,
	// as Table I predicts for blocks of this size.
	var halfFixed float64
	for _, r := range rows {
		if r.Name == benchCircuits()[0]+"B_L1_V0_V" {
			halfFixed = r.FixedPct
		}
	}
	b.ReportMetric(halfFixed, "%fixed@half-chip")
}

// BenchmarkMultiway runs the paper's multiway open question: a reduced sweep
// with 4-way recursive bisection.
func BenchmarkMultiway(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	b.ResetTimer()
	var rows []experiments.MultiwayRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.MultiwaySweep("IBM01S", nl.H, 4, experiments.SweepConfig{
			Fractions: []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50},
			Trials:    benchTrials(),
			Seed:      5,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	multiwayOnce.Do(func() { experiments.RenderMultiway(os.Stdout, rows) })
	for _, r := range rows {
		if r.Regime == experiments.Good && r.Fraction == 0.30 {
			b.ReportMetric(r.Normalized, "norm-cut-good@30%")
		}
	}
}

// BenchmarkPolicyAblation compares CLIP against LIFO refinement in the
// multilevel engine (the paper reports "very similar results").
func BenchmarkPolicyAblation(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	p := partitionProblem(nl)
	const runs = 6
	b.ResetTimer()
	var clipCut, lifoCut float64
	for i := 0; i < b.N; i++ {
		clipCut, lifoCut = 0, 0
		rng := rand.New(rand.NewPCG(12, 12))
		lifo := multilevel.Config{Policy: fm.LIFO}
		for r := 0; r < runs; r++ {
			res, err := multilevel.Partition(p, multilevel.Config{}, rng)
			if err != nil {
				b.Fatal(err)
			}
			clipCut += float64(res.Cut)
			lres, err := multilevel.Partition(p, lifo, rng)
			if err != nil {
				b.Fatal(err)
			}
			lifoCut += float64(lres.Cut)
		}
	}
	b.StopTimer()
	policyOnce.Do(func() {
		fmt.Printf("policy ablation (%d runs): CLIP avg cut=%.1f, LIFO avg cut=%.1f\n",
			runs, clipCut/runs, lifoCut/runs)
	})
	if lifoCut > 0 {
		b.ReportMetric(clipCut/lifoCut, "clip-vs-lifo-cut-ratio")
	}
}

// BenchmarkConstraintStudy regenerates the constraint-strength extension
// study: invariant constraint measures against observed multistart benefit.
func BenchmarkConstraintStudy(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	b.ResetTimer()
	var rows []experiments.ConstraintRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ConstraintStudy("IBM01S", nl.H, experiments.SweepConfig{
			Fractions: []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50},
			Trials:    benchTrials(),
			Seed:      13,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	constraintOnce.Do(func() { experiments.RenderConstraintStudy(os.Stdout, rows) })
	for _, r := range rows {
		if r.Regime == experiments.Rand && r.Fraction == 0.30 {
			b.ReportMetric(r.Report.ConstrainedNetFraction, "netfix@rand30%")
			b.ReportMetric(r.StartsBenefit, "1v8@rand30%")
		}
	}
}

// BenchmarkPassProfile regenerates the Section III pass-shape study: the
// cumulative-gain curve of FM passes, which concentrates toward the start of
// the pass as terminals are added (the observation that justifies Table
// III's cutoffs).
func BenchmarkPassProfile(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	b.ResetTimer()
	var rows []experiments.PassProfileRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PassProfile("IBM01S", nl.H, experiments.FlatConfig{
			Fractions: []float64{0, 0.10, 0.30, 0.50},
			Runs:      20,
			Seed:      14,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	profileOnce.Do(func() { experiments.RenderPassProfile(os.Stdout, rows) })
	for _, r := range rows {
		if r.Fraction == 0 {
			b.ReportMetric(r.Deciles[0], "peak<=10%moves,free")
		}
		if r.Fraction == 0.50 {
			b.ReportMetric(r.Deciles[0], "peak<=10%moves,50%fixed")
		}
	}
}

// BenchmarkStartsRequired regenerates the multistart-effort study answering
// the paper's question 3: how many adaptive starts does an instance deserve
// as terminals are fixed.
func BenchmarkStartsRequired(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	b.ResetTimer()
	var rows []experiments.StartsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.StartsRequired("IBM01S", nl.H, experiments.SweepConfig{
			Fractions: []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50},
			Trials:    benchTrials(),
			Seed:      15,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	startsOnce.Do(func() { experiments.RenderStartsRequired(os.Stdout, rows) })
	for _, r := range rows {
		if r.Regime == experiments.Rand {
			if r.Fraction == 0 {
				b.ReportMetric(r.AvgStarts, "starts@0%")
			}
			if r.Fraction == 0.30 {
				b.ReportMetric(r.AvgStarts, "starts@30%")
			}
		}
	}
}

var (
	policyOnce     sync.Once
	constraintOnce sync.Once
	profileOnce    sync.Once
	startsOnce     sync.Once
)

func partitionProblem(nl *gen.Netlist) *partition.Problem {
	return partition.NewBipartition(nl.H, 0.02)
}

func benchPlace(nl *gen.Netlist, seed uint64) (*place.Placement, error) {
	nv := nl.H.NumVertices()
	fx := make([]float64, nv)
	fy := make([]float64, nv)
	for v := 0; v < nv; v++ {
		if nl.H.IsPad(v) {
			fx[v] = float64(nl.CellX[v])
			fy[v] = float64(nl.CellY[v])
		} else {
			fx[v], fy[v] = math.NaN(), math.NaN()
		}
	}
	return place.Place(nl.H, place.Config{
		Width: float64(nl.GridSide), Height: float64(nl.GridSide),
		FixedX: fx, FixedY: fy,
	}, rand.New(rand.NewPCG(seed, 0xbe4c4)))
}

// TestBenchHarnessSmoke keeps the benchmark plumbing covered by `go test`:
// it runs a miniature figure sweep end to end.
func TestBenchHarnessSmoke(t *testing.T) {
	pr, err := gen.PresetByName("IBM01S")
	if err != nil {
		t.Fatal(err)
	}
	nl, err := gen.Generate(pr.Params.Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunSweep("smoke", nl.H, experiments.SweepConfig{
		Fractions: []float64{0, 0.30},
		Starts:    []int{1, 2},
		Trials:    2,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
}
