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
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hypergraph"
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

// BenchmarkVCycleAblation measures the paper's engineering claim that
// V-cycling is "a net loss in terms of overall cost-runtime profile": it
// compares plain multilevel starts against starts followed by V-cycles,
// reporting quality gain and runtime cost.
func BenchmarkVCycleAblation(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	p := partitionProblem(nl)
	const runs = 6
	b.ResetTimer()
	var plainCut, vcCut float64
	var plainNs, vcNs int64
	for i := 0; i < b.N; i++ {
		plainCut, vcCut, plainNs, vcNs = 0, 0, 0, 0
		rng := rand.New(rand.NewPCG(11, 11))
		for r := 0; r < runs; r++ {
			t0 := nowNano()
			res, err := multilevel.Partition(p, multilevel.Config{}, rng)
			if err != nil {
				b.Fatal(err)
			}
			plainNs += nowNano() - t0
			plainCut += float64(res.Cut)

			t0 = nowNano()
			vres, err := solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{VCycles: 2}, rng)
			if err != nil {
				b.Fatal(err)
			}
			vcNs += nowNano() - t0
			vcCut += float64(vres.Cut)
		}
	}
	b.StopTimer()
	vcycleOnce.Do(func() {
		fmt.Printf("V-cycle ablation (%d runs, %s): plain cut=%.1f (%.0f ms), +2 V-cycles cut=%.1f (%.0f ms)\n",
			runs, "IBM01S", plainCut/runs, float64(plainNs)/runs/1e6, vcCut/runs, float64(vcNs)/runs/1e6)
	})
	if plainCut > 0 && plainNs > 0 {
		b.ReportMetric(vcCut/plainCut, "vcycle-cut-ratio")
		b.ReportMetric(float64(vcNs)/float64(plainNs), "vcycle-time-ratio")
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
		var lifo multilevel.Config
		lifo.SetPolicy(fm.LIFO)
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

// BenchmarkCoarseningAblation compares the coarsening schemes (heavy-edge
// matching as in the paper's engine vs hMetis's hyperedge variants) on cut
// quality at equal start counts.
func BenchmarkCoarseningAblation(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	p := partitionProblem(nl)
	schemes := []multilevel.Scheme{multilevel.HeavyEdge, multilevel.Hyperedge, multilevel.ModifiedHyperedge}
	const runs = 6
	cuts := make([]float64, len(schemes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for si, scheme := range schemes {
			cuts[si] = 0
			rng := rand.New(rand.NewPCG(16, uint64(si)))
			for r := 0; r < runs; r++ {
				res, err := multilevel.Partition(p, multilevel.Config{Scheme: scheme}, rng)
				if err != nil {
					b.Fatal(err)
				}
				cuts[si] += float64(res.Cut)
			}
			cuts[si] /= runs
		}
	}
	b.StopTimer()
	coarsenOnce.Do(func() {
		for si, scheme := range schemes {
			fmt.Printf("coarsening ablation: %-20v avg cut = %.1f (%d runs)\n", scheme, cuts[si], runs)
		}
	})
	if cuts[0] > 0 {
		b.ReportMetric(cuts[1]/cuts[0], "EC-vs-HEM")
		b.ReportMetric(cuts[2]/cuts[0], "MHEC-vs-HEM")
	}
}

var coarsenOnce sync.Once

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
	vcycleOnce     sync.Once
	policyOnce     sync.Once
	constraintOnce sync.Once
	profileOnce    sync.Once
	startsOnce     sync.Once
)

func partitionProblem(nl *gen.Netlist) *partition.Problem {
	return partition.NewBipartition(nl.H, 0.02)
}

func nowNano() int64 { return time.Now().UnixNano() }

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

// BenchmarkMultistart measures the deterministic multistart engine: one
// serial Solve baseline (Workers: 1) plus Solve at several worker counts,
// all computing the identical 8-start result. Worker-scaling rows run
// with GOMAXPROCS raised to the worker count but never past runtime.NumCPU():
// raising it above the physical core count does not buy parallelism — it
// adds time-slicing and extra GC worker scheduling, which is exactly what
// made earlier baselines report 4- and 8-worker rows *slower* than serial on
// small hosts. With the clamp, rows whose worker count exceeds the core
// count measure the parallel driver's dispatch overhead (bounded below)
// rather than a scheduling artifact. The first run also writes
// BENCH_multistart.json (num_cpu and per-row gomaxprocs recorded), a
// committed baseline for tracking the engine's throughput and the parallel
// driver's overhead across changes.
func BenchmarkMultistart(b *testing.B) {
	const starts = 8
	nl := mustNetlist(b, "IBM01S", benchScale())
	p := partition.NewBipartition(nl.H, 0.02)
	// runOnce executes the 8-start run; workers=0 is the serial driver.
	// Parallel rows raise GOMAXPROCS toward the worker count, clamped to the
	// physical core count, for the duration.
	runOnce := func(workers int) (*multilevel.Result, time.Duration, int) {
		procs := runtime.GOMAXPROCS(0)
		if target := min(workers, runtime.NumCPU()); target > procs {
			prev := runtime.GOMAXPROCS(target)
			defer runtime.GOMAXPROCS(prev)
			procs = target
		}
		rng := rand.New(rand.NewPCG(1, 1))
		t0 := time.Now()
		var res *multilevel.Result
		var err error
		if workers == 0 {
			res, err = solve(p, multilevel.Config{Workers: 1}, multilevel.Spec{Starts: starts}, rng)
		} else {
			res, err = solve(p, multilevel.Config{Workers: workers}, multilevel.Spec{Starts: starts}, rng)
		}
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(t0), procs
	}
	b.Run("serial", func(b *testing.B) {
		var res *multilevel.Result
		for i := 0; i < b.N; i++ {
			res, _, _ = runOnce(0)
		}
		b.ReportMetric(float64(res.Cut), "cut")
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *multilevel.Result
			for i := 0; i < b.N; i++ {
				res, _, _ = runOnce(workers)
			}
			b.ReportMetric(float64(res.Cut), "cut")
		})
	}
	multistartBaselineOnce.Do(func() {
		base := multistartBaseline{
			Instance:   "IBM01S",
			Scale:      benchScale(),
			Starts:     starts,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		}
		res, dt, _ := runOnce(0)
		base.SerialNS = dt.Nanoseconds()
		base.Cut = res.Cut
		for _, workers := range []int{1, 2, 4, 8} {
			pres, pdt, procs := runOnce(workers)
			if pres.Cut != res.Cut {
				b.Fatalf("workers=%d cut %d != serial cut %d (determinism contract broken)",
					workers, pres.Cut, res.Cut)
			}
			base.Parallel = append(base.Parallel, multistartSample{Workers: workers, GOMAXPROCS: procs, NS: pdt.Nanoseconds()})
		}
		// Scaling and overhead bars. Rows that got at least 2 real cores must
		// beat the serial driver — the starts are embarrassingly parallel, so
		// anything else is a driver regression. Rows the host cannot scale
		// (workers beyond NumCPU, and the 1-worker row) may only charge
		// bounded dispatch overhead over serial; 1.3x leaves room for
		// single-run timing noise at this scale while still catching the old
		// failure mode where oversubscribed rows ran far slower than serial.
		for _, row := range base.Parallel {
			if row.Workers >= 2 && row.Workers <= base.NumCPU {
				if row.NS >= base.SerialNS {
					b.Errorf("workers=%d (%.1fms on %d cores) not faster than serial (%.1fms)",
						row.Workers, float64(row.NS)/1e6, row.GOMAXPROCS, float64(base.SerialNS)/1e6)
				}
			} else if float64(row.NS) > 1.3*float64(base.SerialNS) {
				b.Errorf("workers=%d (%.1fms at gomaxprocs=%d) exceeds the 1.3x dispatch-overhead bound over serial (%.1fms)",
					row.Workers, float64(row.NS)/1e6, row.GOMAXPROCS, float64(base.SerialNS)/1e6)
			}
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_multistart.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("wrote BENCH_multistart.json (serial %.1fms, cut %d)\n",
			float64(base.SerialNS)/1e6, base.Cut)
	})
}

var multistartBaselineOnce sync.Once

// multistartBaseline is the schema of BENCH_multistart.json.
type multistartBaseline struct {
	Instance   string             `json:"instance"`
	Scale      float64            `json:"scale"`
	Starts     int                `json:"starts"`
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Cut        int64              `json:"cut"`
	SerialNS   int64              `json:"serial_ns"`
	Parallel   []multistartSample `json:"parallel"`
}

type multistartSample struct {
	Workers    int   `json:"workers"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	NS         int64 `json:"ns"`
}

// BenchmarkSharedMultistart measures the shared-hierarchy multistart path
// against the unshared baseline: 8 starts over 2 shared coarsening
// hierarchies (2 owner starts with full refinement + 6 follower resamples
// under the Table III pass cutoff) versus 8 full Partition starts. The first
// run writes BENCH_shared.json with per-start wall-clock, mean best cut,
// per-phase time/alloc breakdowns (multilevel.PhaseStats) and the Contract
// allocation comparison, and enforces the acceptance bars: shared per-start
// >= 1.5x faster, mean best cut within 2%, Contract allocs/op reduced >= 5x.
func BenchmarkSharedMultistart(b *testing.B) {
	const starts = 8
	const hierarchies = 2
	nl := mustNetlist(b, "IBM01S", benchScale())
	p := partition.NewBipartition(nl.H, 0.02)
	runUnshared := func(seed uint64, st *multilevel.PhaseStats) (*multilevel.Result, time.Duration) {
		rng := rand.New(rand.NewPCG(seed, 17))
		t0 := time.Now()
		res, err := solve(p, multilevel.Config{Workers: 1, Stats: st}, multilevel.Spec{Starts: starts}, rng)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(t0)
	}
	runShared := func(seed uint64, st *multilevel.PhaseStats) (*multilevel.Result, time.Duration) {
		rng := rand.New(rand.NewPCG(seed, 17))
		t0 := time.Now()
		res, err := solve(p, multilevel.Config{Workers: 1, Stats: st}, multilevel.Spec{Starts: starts, Hierarchies: hierarchies}, rng)
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(t0)
	}
	b.Run("unshared", func(b *testing.B) {
		var res *multilevel.Result
		for i := 0; i < b.N; i++ {
			res, _ = runUnshared(1, nil)
		}
		b.ReportMetric(float64(res.Cut), "cut")
	})
	b.Run("shared", func(b *testing.B) {
		var res *multilevel.Result
		for i := 0; i < b.N; i++ {
			res, _ = runShared(1, nil)
		}
		b.ReportMetric(float64(res.Cut), "cut")
	})
	sharedBaselineOnce.Do(func() {
		const trials = 5
		base := sharedBaseline{
			Instance:    "IBM01S",
			Scale:       benchScale(),
			Starts:      starts,
			Hierarchies: hierarchies,
			Trials:      trials,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
		}
		var unsharedNS, sharedNS int64
		var unsharedCut, sharedCut float64
		for seed := uint64(1); seed <= trials; seed++ {
			ures, udt := runUnshared(seed, &base.Unshared.Phases)
			unsharedNS += udt.Nanoseconds()
			unsharedCut += float64(ures.Cut)
			sres, sdt := runShared(seed, &base.Shared.Phases)
			sharedNS += sdt.Nanoseconds()
			sharedCut += float64(sres.Cut)
		}
		base.Unshared.PerStartNS = unsharedNS / (trials * starts)
		base.Unshared.MeanBestCut = unsharedCut / trials
		base.Shared.PerStartNS = sharedNS / (trials * starts)
		base.Shared.MeanBestCut = sharedCut / trials
		base.PerStartSpeedup = float64(base.Unshared.PerStartNS) / float64(base.Shared.PerStartNS)

		// Contract allocation comparison on a representative contraction of
		// the same instance (pairing clustering, parallel nets merged).
		clusterOf := make([]int32, nl.H.NumVertices())
		for v := range clusterOf {
			clusterOf[v] = int32(v / 2)
		}
		nc := (nl.H.NumVertices() + 1) / 2
		opts := hypergraph.ContractOptions{MergeParallelNets: true}
		base.Contract.ScratchAllocsPerOp = testing.AllocsPerRun(10, func() {
			if _, _, err := hypergraph.Contract(nl.H, clusterOf, nc, opts); err != nil {
				b.Fatal(err)
			}
		})
		base.Contract.ReferenceAllocsPerOp = testing.AllocsPerRun(10, func() {
			if _, _, err := hypergraph.ContractReference(nl.H, clusterOf, nc, opts); err != nil {
				b.Fatal(err)
			}
		})
		base.Contract.AllocReduction = base.Contract.ReferenceAllocsPerOp / base.Contract.ScratchAllocsPerOp

		// Acceptance bars.
		if base.PerStartSpeedup < 1.5 {
			b.Errorf("shared per-start speedup %.2fx below the 1.5x acceptance bar (shared %.1fms vs unshared %.1fms)",
				base.PerStartSpeedup, float64(base.Shared.PerStartNS)/1e6, float64(base.Unshared.PerStartNS)/1e6)
		}
		if base.Shared.MeanBestCut > 1.02*base.Unshared.MeanBestCut {
			b.Errorf("shared mean best cut %.1f more than 2%% above unshared %.1f",
				base.Shared.MeanBestCut, base.Unshared.MeanBestCut)
		}
		if base.Contract.AllocReduction < 5 {
			b.Errorf("Contract alloc reduction %.1fx below the 5x acceptance bar", base.Contract.AllocReduction)
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_shared.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("wrote BENCH_shared.json (per-start: shared %.1fms vs unshared %.1fms, %.2fx; cuts %.1f vs %.1f)\n",
			float64(base.Shared.PerStartNS)/1e6, float64(base.Unshared.PerStartNS)/1e6,
			base.PerStartSpeedup, base.Shared.MeanBestCut, base.Unshared.MeanBestCut)
	})
}

var sharedBaselineOnce sync.Once

// sharedBaseline is the schema of BENCH_shared.json.
type sharedBaseline struct {
	Instance        string     `json:"instance"`
	Scale           float64    `json:"scale"`
	Starts          int        `json:"starts"`
	Hierarchies     int        `json:"hierarchies"`
	Trials          int        `json:"trials"`
	GOMAXPROCS      int        `json:"gomaxprocs"`
	Unshared        sharedSide `json:"unshared"`
	Shared          sharedSide `json:"shared"`
	PerStartSpeedup float64    `json:"per_start_speedup"`
	Contract        struct {
		ScratchAllocsPerOp   float64 `json:"scratch_allocs_per_op"`
		ReferenceAllocsPerOp float64 `json:"reference_allocs_per_op"`
		AllocReduction       float64 `json:"alloc_reduction"`
	} `json:"contract"`
}

type sharedSide struct {
	PerStartNS  int64                 `json:"per_start_ns"`
	MeanBestCut float64               `json:"mean_best_cut"`
	Phases      multilevel.PhaseStats `json:"phases"`
}

// BenchmarkDirectKway measures the direct k-way V-cycle driver against
// recursive bisection + k-way FM polish at several part counts. The first
// run also writes BENCH_kway.json, a committed baseline for tracking the
// k-way kernel's quality and throughput across changes; it re-checks that
// the direct driver's mean cut stays at or below recursive bisection's.
func BenchmarkDirectKway(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	runDirect := func(k int, seed uint64) (int64, time.Duration) {
		p := partition.NewFree(nl.H, k, 0.05)
		rng := rand.New(rand.NewPCG(seed, 0xd1))
		t0 := time.Now()
		res, err := multilevel.PartitionKWay(p, multilevel.Config{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		return res.Cut, time.Since(t0)
	}
	runRB := func(k int, seed uint64) (int64, time.Duration) {
		p := partition.NewFree(nl.H, k, 0.05)
		rng := rand.New(rand.NewPCG(seed, 0xd1))
		t0 := time.Now()
		res, err := multilevel.RecursiveBisect(p, multilevel.Config{}, rng)
		if err != nil {
			b.Fatal(err)
		}
		ref, err := fm.KWayPartition(p, res.Assignment, fm.Config{Policy: fm.CLIP})
		if err != nil {
			b.Fatal(err)
		}
		return ref.Cut, time.Since(t0)
	}
	ks := []int{2, 3, 4, 8}
	for _, k := range ks {
		b.Run(fmt.Sprintf("direct/k=%d", k), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cut, _ = runDirect(k, 1)
			}
			b.ReportMetric(float64(cut), "cut")
		})
		b.Run(fmt.Sprintf("rb/k=%d", k), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cut, _ = runRB(k, 1)
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
	kwayBaselineOnce.Do(func() {
		base := kwayBaseline{Instance: "IBM01S", Scale: benchScale(), Seeds: 3}
		for _, k := range ks {
			row := kwaySample{K: k}
			var direct, rb float64
			for seed := uint64(1); seed <= uint64(base.Seeds); seed++ {
				dc, dt := runDirect(k, seed)
				rc, rt := runRB(k, seed)
				direct += float64(dc)
				rb += float64(rc)
				row.DirectNS += dt.Nanoseconds()
				row.RBNS += rt.Nanoseconds()
			}
			row.DirectCut = direct / float64(base.Seeds)
			row.RBCut = rb / float64(base.Seeds)
			row.DirectNS /= int64(base.Seeds)
			row.RBNS /= int64(base.Seeds)
			if row.DirectCut > row.RBCut {
				b.Errorf("k=%d: direct mean cut %.1f > rb mean cut %.1f (acceptance bar)",
					k, row.DirectCut, row.RBCut)
			}
			base.Rows = append(base.Rows, row)
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_kway.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Println("wrote BENCH_kway.json")
	})
}

var kwayBaselineOnce sync.Once

// kwayBaseline is the schema of BENCH_kway.json.
type kwayBaseline struct {
	Instance string       `json:"instance"`
	Scale    float64      `json:"scale"`
	Seeds    int          `json:"seeds"`
	Rows     []kwaySample `json:"rows"`
}

type kwaySample struct {
	K         int     `json:"k"`
	DirectCut float64 `json:"direct_cut"`
	RBCut     float64 `json:"rb_cut"`
	DirectNS  int64   `json:"direct_ns"`
	RBNS      int64   `json:"rb_ns"`
}

// BenchmarkRefine measures the net-state-aware FM kernel (locked-net
// short-circuiting, 2/3-pin fast paths, CSR allowed-target lists, batched
// bucket repositioning) against the frozen pre-rewrite kernel
// (fm.BipartitionReference) on flat FM refinement of IBM01S. Rows cover both
// bucket policies at fixed-vertex fractions 0/25/50% (the paper's Table III
// regime); every run is first checked to produce the identical assignment and
// cut, so every comparison is over bit-equal work. The first run writes
// BENCH_refine.json and enforces the acceptance bars:
//
//   - aggregate gain-update pin-traversal reduction >= 1.3x: the kernel must
//     execute at most 1/1.3 of the reference's critical-net pin scans (both
//     sides counted under identical accounting, see fm.KernelStats);
//   - aggregate wall-clock speedup >= 0.85x: the short-circuiting machinery
//     must not cost real time. The work it removes sits on memory-latency-
//     bound dependent loads that out-of-order cores largely hide, so the
//     measured time ratio is near parity (reported per row and in aggregate)
//     while the reduction bar captures the architectural win — which does
//     turn into wall-clock time on the cache-resident coarse levels of a
//     multilevel descent.
func BenchmarkRefine(b *testing.B) {
	nl := mustNetlist(b, "IBM01S", benchScale())
	problem := func(fixfrac float64) *partition.Problem {
		p := partition.NewBipartition(nl.H, 0.02)
		if fixfrac > 0 {
			rng := rand.New(rand.NewPCG(0xf1f, uint64(fixfrac*100)))
			order := rng.Perm(nl.H.NumVertices())
			for _, v := range order[:int(fixfrac*float64(len(order)))] {
				p.Fix(v, rng.IntN(2))
			}
		}
		return p
	}
	type refineRow struct {
		policy  fm.Policy
		fixfrac float64
	}
	rows := []refineRow{
		{fm.LIFO, 0}, {fm.LIFO, 0.25}, {fm.LIFO, 0.5},
		{fm.CLIP, 0}, {fm.CLIP, 0.25}, {fm.CLIP, 0.5},
	}
	problems := map[float64]*partition.Problem{
		0: problem(0), 0.25: problem(0.25), 0.5: problem(0.5),
	}
	initialFor := func(p *partition.Problem, seed uint64) partition.Assignment {
		a, err := partition.RandomFeasible(p, rand.New(rand.NewPCG(seed, 0xcafe)))
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	assignEqual := func(x, y partition.Assignment) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	for _, r := range rows {
		p := problems[r.fixfrac]
		name := fmt.Sprintf("%v/fixed=%d%%", r.policy, int(r.fixfrac*100))
		b.Run(name+"/kernel", func(b *testing.B) {
			sc := fm.GetScratch()
			defer fm.PutScratch(sc)
			initial := initialFor(p, 1)
			var res *fm.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fm.BipartitionWith(p, initial, fm.Config{Policy: r.policy}, sc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cut), "cut")
		})
		b.Run(name+"/reference", func(b *testing.B) {
			initial := initialFor(p, 1)
			var res *fm.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = fm.BipartitionReference(p, initial, fm.Config{Policy: r.policy})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cut), "cut")
		})
	}
	refineBaselineOnce.Do(func() {
		const trials = 5
		const reps = 3
		sc := fm.GetScratch()
		defer fm.PutScratch(sc)
		var total fm.KernelStats
		base := refineBaseline{Instance: "IBM01S", Scale: benchScale(), Trials: trials, Reps: reps}
		var kernelTotal, refTotal int64
		for _, r := range rows {
			p := problems[r.fixfrac]
			sample := refineSample{Policy: r.policy.String(), FixedFraction: r.fixfrac}
			var rowStats fm.KernelStats
			cfg := fm.Config{Policy: r.policy, Stats: &rowStats}
			refCfg := fm.Config{Policy: r.policy}
			for seed := uint64(1); seed <= trials; seed++ {
				initial := initialFor(p, seed)
				// Untimed warm-up run of each kernel: verifies the rewritten
				// kernel reproduces the frozen one bit for bit on this input
				// and warms the scratch/pool so the timed reps compare steady
				// state.
				kres, err := fm.BipartitionWith(p, initial, cfg, sc)
				if err != nil {
					b.Fatal(err)
				}
				rres, err := fm.BipartitionReference(p, initial, refCfg)
				if err != nil {
					b.Fatal(err)
				}
				if kres.Cut != rres.Cut || !assignEqual(kres.Assignment, rres.Assignment) {
					b.Fatalf("%v fixed=%.0f%% seed=%d: kernel cut %d != reference cut %d (or assignments differ)",
						r.policy, 100*r.fixfrac, seed, kres.Cut, rres.Cut)
				}
				sample.Cut = kres.Cut
				// Interleave the timed reps so CPU frequency drift hits both
				// kernels equally.
				for rep := 0; rep < reps; rep++ {
					t0 := time.Now()
					if _, err := fm.BipartitionWith(p, initial, cfg, sc); err != nil {
						b.Fatal(err)
					}
					sample.KernelNS += time.Since(t0).Nanoseconds()
					t0 = time.Now()
					if _, err := fm.BipartitionReference(p, initial, refCfg); err != nil {
						b.Fatal(err)
					}
					sample.ReferenceNS += time.Since(t0).Nanoseconds()
				}
			}
			snap := rowStats.Snapshot()
			sample.TimeSpeedup = float64(sample.ReferenceNS) / float64(sample.KernelNS)
			if snap.PinsScanned > 0 {
				sample.ScanReduction = float64(snap.PinsScanned+snap.PinScansAvoided) / float64(snap.PinsScanned)
			}
			kernelTotal += sample.KernelNS
			refTotal += sample.ReferenceNS
			total.NetsSkipped += snap.NetsSkipped
			total.PinScansAvoided += snap.PinScansAvoided
			total.PinsScanned += snap.PinsScanned
			total.BucketUpdatesSaved += snap.BucketUpdatesSaved
			base.Rows = append(base.Rows, sample)
		}
		base.TimeSpeedup = float64(refTotal) / float64(kernelTotal)
		base.ScanReduction = float64(total.PinsScanned+total.PinScansAvoided) / float64(total.PinsScanned)
		base.Kernel = total
		if base.ScanReduction < 1.3 {
			b.Errorf("refine kernel aggregate pin-traversal reduction %.2fx below the 1.3x acceptance bar (%d scanned vs %d avoided)",
				base.ScanReduction, total.PinsScanned, total.PinScansAvoided)
		}
		if base.TimeSpeedup < 0.85 {
			b.Errorf("refine kernel aggregate wall-clock speedup %.2fx below the 0.85x no-regression floor (kernel %.1fms vs reference %.1fms)",
				base.TimeSpeedup, float64(kernelTotal)/1e6, float64(refTotal)/1e6)
		}
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_refine.json", append(buf, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
		fmt.Printf("wrote BENCH_refine.json (pin-traversal reduction %.2fx, wall-clock speedup %.2fx; %d locked nets skipped, %d bucket updates saved)\n",
			base.ScanReduction, base.TimeSpeedup, base.Kernel.NetsSkipped, base.Kernel.BucketUpdatesSaved)
	})
}

var refineBaselineOnce sync.Once

// refineBaseline is the schema of BENCH_refine.json. ScanReduction is the
// enforced >= 1.3x acceptance metric: the factor by which locked-net
// short-circuiting shrinks the gain-update pin traversals the frozen
// reference kernel executes, measured on runs verified to produce identical
// cuts and assignments. TimeSpeedup is the measured wall-clock ratio over the
// same runs, reported unfiltered (near parity on memory-bound flat instances;
// the floor only guards against regression).
type refineBaseline struct {
	Instance      string         `json:"instance"`
	Scale         float64        `json:"scale"`
	Trials        int            `json:"trials"`
	Reps          int            `json:"reps"`
	Rows          []refineSample `json:"rows"`
	TimeSpeedup   float64        `json:"time_speedup"`
	ScanReduction float64        `json:"scan_reduction"`
	Kernel        fm.KernelStats `json:"kernel"`
}

type refineSample struct {
	Policy        string  `json:"policy"`
	FixedFraction float64 `json:"fixed_fraction"`
	Cut           int64   `json:"cut"`
	KernelNS      int64   `json:"kernel_ns"`
	ReferenceNS   int64   `json:"reference_ns"`
	TimeSpeedup   float64 `json:"time_speedup"`
	ScanReduction float64 `json:"scan_reduction"`
}
