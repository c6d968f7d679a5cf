package experiments_test

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/place"
)

func testNetlist(t *testing.T, cells int, seed uint64) *hypergraph.Hypergraph {
	t.Helper()
	nl, err := gen.Generate(gen.Params{
		Cells:        cells,
		Pads:         12,
		RentExponent: 0.65,
		PinsPerCell:  3.6,
		AvgNetSize:   3.3,
		MaxAreaPct:   2,
		Seed:         seed,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return nl.H
}

func TestFixScheduleNested(t *testing.T) {
	h := testNetlist(t, 300, 1)
	rng := rand.New(rand.NewPCG(1, 1))
	good := make(partition.Assignment, h.NumVertices())
	sched, err := experiments.NewFixSchedule(h, 2, good, rng)
	if err != nil {
		t.Fatalf("NewFixSchedule: %v", err)
	}
	base := partition.NewBipartition(h, 0.1)
	p1 := sched.Apply(base, 0.1, experiments.Rand)
	p2 := sched.Apply(base, 0.3, experiments.Rand)
	// Nesting: every vertex fixed at 10% is fixed to the same part at 30%.
	for v := 0; v < h.NumVertices(); v++ {
		if part, ok := p1.FixedPart(v); ok {
			part2, ok2 := p2.FixedPart(v)
			if !ok2 || part2 != part {
				t.Fatalf("vertex %d fixed at 10%% but not identically at 30%%", v)
			}
		}
	}
	if got, want := p1.NumFixed(), sched.NumFixed(0.1); got != want {
		t.Errorf("NumFixed = %d, want %d", got, want)
	}
	// Base problem is untouched.
	if base.NumFixed() != 0 {
		t.Error("Apply mutated the base problem")
	}
}

func TestFixScheduleRegimes(t *testing.T) {
	h := testNetlist(t, 200, 2)
	rng := rand.New(rand.NewPCG(2, 2))
	good := make(partition.Assignment, h.NumVertices())
	for v := range good {
		good[v] = int8(v % 2)
	}
	sched, err := experiments.NewFixSchedule(h, 2, good, rng)
	if err != nil {
		t.Fatal(err)
	}
	base := partition.NewBipartition(h, 0.1)
	pg := sched.Apply(base, 0.5, experiments.Good)
	for v := 0; v < h.NumVertices(); v++ {
		if part, ok := pg.FixedPart(v); ok && int8(part) != good[v] {
			t.Fatalf("good regime fixed vertex %d to %d, solution says %d", v, part, good[v])
		}
	}
}

func TestNewFixScheduleError(t *testing.T) {
	h := testNetlist(t, 100, 3)
	rng := rand.New(rand.NewPCG(3, 3))
	if _, err := experiments.NewFixSchedule(h, 2, make(partition.Assignment, 5), rng); err == nil {
		t.Error("want error for short good solution")
	}
}

func TestRegimeString(t *testing.T) {
	if experiments.Good.String() != "good" || experiments.Rand.String() != "rand" {
		t.Error("Regime strings wrong")
	}
}

func TestDefaultFractions(t *testing.T) {
	fs := experiments.DefaultFractions()
	if len(fs) != 12 || fs[0] != 0 || fs[len(fs)-1] != 0.5 {
		t.Errorf("DefaultFractions = %v", fs)
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Errorf("fractions not increasing at %d", i)
		}
	}
}

func sweepFixture(t *testing.T) *experiments.SweepResult {
	t.Helper()
	h := testNetlist(t, 500, 4)
	res, err := experiments.RunSweep("T500", h, experiments.SweepConfig{
		Fractions:  []float64{0, 0.05, 0.30},
		Starts:     []int{1, 2},
		Trials:     3,
		Tolerance:  0.05,
		GoodStarts: 4,
		Seed:       4,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return res
}

// startsBenefit returns, for the given regime and fraction of r, the relative
// quality advantage of the largest multistart trace over the single-start
// trace: (avg cut at 1 start) / (avg cut at max starts). Values near 1 mean
// extra starts buy nothing — the paper's "instances with many fixed
// terminals are easy" signal.
func startsBenefit(r *experiments.SweepResult, regime experiments.Regime, fraction float64) float64 {
	var one, most *experiments.SweepPoint
	maxStarts := 0
	for i := range r.Points {
		p := &r.Points[i]
		if p.Regime != regime || p.Fraction != fraction {
			continue
		}
		if p.Starts == 1 {
			one = p
		}
		if p.Starts > maxStarts {
			maxStarts = p.Starts
			most = p
		}
	}
	if one == nil || most == nil || most.AvgBestCut == 0 {
		return 1
	}
	return one.AvgBestCut / most.AvgBestCut
}

func TestRunSweep(t *testing.T) {
	res := sweepFixture(t)
	if res.BestFreeCut <= 0 {
		t.Fatalf("best free cut = %d", res.BestFreeCut)
	}
	if len(res.Points) != 2*3*2 { // regimes * fractions * starts
		t.Fatalf("points = %d, want 12", len(res.Points))
	}
	for _, p := range res.Points {
		if p.AvgBestCut < 0 || p.Normalized <= 0 {
			t.Errorf("bad point %+v", p)
		}
		if p.AvgCPU <= 0 {
			t.Errorf("no CPU recorded for %+v", p)
		}
	}
	// Rand regime: heavy random fixing must raise the raw cut well above the
	// free case (the paper's first observation).
	rand0 := res.Point(experiments.Rand, 0, 1)
	rand30 := res.Point(experiments.Rand, 0.30, 1)
	if rand30.AvgBestCut <= rand0.AvgBestCut {
		t.Errorf("rand raw cut did not increase: %.1f -> %.1f", rand0.AvgBestCut, rand30.AvgBestCut)
	}
	// Rand normalization is per fraction.
	if _, ok := res.RandBest[0.30]; !ok {
		t.Error("RandBest missing fraction 0.30")
	}
	// StartsBenefit near 1 means extra starts gain nothing; the two traces
	// draw different random starts, so allow small sampling noise below 1.
	b := startsBenefit(res, experiments.Good, 0.30)
	if b < 0.9 {
		t.Errorf("StartsBenefit = %v, implausibly below 1", b)
	}
}

func TestSweepPointLookup(t *testing.T) {
	res := sweepFixture(t)
	if res.Point(experiments.Good, 0.05, 2) == nil {
		t.Error("Point lookup failed")
	}
	if res.Point(experiments.Good, 0.99, 2) != nil {
		t.Error("Point invented data")
	}
}

func TestTableII(t *testing.T) {
	h := testNetlist(t, 400, 5)
	rows, err := experiments.TableII("T400", h, experiments.FlatConfig{
		Fractions:  []float64{0, 0.30},
		Runs:       6,
		Tolerance:  0.05,
		GoodStarts: 2,
		Seed:       5,
	})
	if err != nil {
		t.Fatalf("TableII: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AvgPasses < 1 {
			t.Errorf("AvgPasses = %v", r.AvgPasses)
		}
		if r.AvgPctMoved < 0 || r.AvgPctMoved > 100 {
			t.Errorf("AvgPctMoved = %v", r.AvgPctMoved)
		}
	}
	t.Logf("pct moved: free=%.1f%%, 30%%fixed=%.1f%%", rows[0].AvgPctMoved, rows[1].AvgPctMoved)
	if rows[1].AvgPctMoved > rows[0].AvgPctMoved+15 {
		t.Errorf("pct moved should not rise sharply with terminals: %v -> %v",
			rows[0].AvgPctMoved, rows[1].AvgPctMoved)
	}
}

func TestTableIII(t *testing.T) {
	h := testNetlist(t, 400, 6)
	cutoffs := []float64{1, 0.10}
	rows, err := experiments.TableIII("T400", h, cutoffs, experiments.FlatConfig{
		Fractions:  []float64{0, 0.30},
		Runs:       6,
		Tolerance:  0.05,
		GoodStarts: 2,
		Seed:       6,
	})
	if err != nil {
		t.Fatalf("TableIII: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	byKey := map[[2]float64]experiments.TableIIIRow{}
	for _, r := range rows {
		byKey[[2]float64{r.Fraction, r.Cutoff}] = r
		if r.AvgCPU <= 0 {
			t.Errorf("no CPU for %+v", r)
		}
	}
	// With 30% terminals, the 10% cutoff must be quality-safe (paper's
	// claim); allow small noise.
	full := byKey[[2]float64{0.30, 1}]
	cut := byKey[[2]float64{0.30, 0.10}]
	if cut.AvgCut > full.AvgCut*1.35+3 {
		t.Errorf("cutoff hurt quality with terminals: %.1f vs %.1f", cut.AvgCut, full.AvgCut)
	}
	t.Logf("30%% fixed: no-cutoff cut=%.1f (%.2fms), 10%%-cutoff cut=%.1f (%.2fms)",
		full.AvgCut, float64(full.AvgCPU.Microseconds())/1000,
		cut.AvgCut, float64(cut.AvgCPU.Microseconds())/1000)
}

func TestTableIV(t *testing.T) {
	h := testNetlist(t, 300, 7)
	pl, err := place.Place(h, place.Config{}, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	var instances []*benchgen.Instance
	for _, spec := range benchgen.StandardSpecs(pl, "T300S")[:4] {
		inst, err := benchgen.Derive(pl, spec, 0.02)
		if err != nil {
			t.Fatalf("Derive %s: %v", spec.Name, err)
		}
		instances = append(instances, inst)
	}
	rows := experiments.TableIV(instances)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cells <= 0 || r.Nets <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.FixedPct <= 0 || r.FixedPct >= 100 {
			t.Errorf("fixed pct = %v", r.FixedPct)
		}
	}
}

func TestMultiwaySweep(t *testing.T) {
	h := testNetlist(t, 400, 8)
	rows, err := experiments.MultiwaySweep("T400", h, 4, experiments.SweepConfig{
		Fractions:  []float64{0, 0.30},
		Trials:     2,
		Tolerance:  0.08,
		GoodStarts: 2,
		Seed:       8,
	})
	if err != nil {
		t.Fatalf("MultiwaySweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.K != 4 || r.AvgCut <= 0 || r.Normalized <= 0 {
			t.Errorf("bad row %+v", r)
		}
	}
}

func TestOverconstrained(t *testing.T) {
	res := &experiments.SweepResult{
		Points: []experiments.SweepPoint{
			{Regime: experiments.Good, Starts: 1, Fraction: 0.0, AvgBestCut: 10},
			{Regime: experiments.Good, Starts: 1, Fraction: 0.1, AvgBestCut: 15},
			{Regime: experiments.Good, Starts: 1, Fraction: 0.2, AvgBestCut: 9},
			{Regime: experiments.Rand, Starts: 1, Fraction: 0.1, AvgBestCut: 99},
		},
	}
	got := experiments.Overconstrained(res, 1)
	if len(got) != 1 || math.Abs(got[0]-0.1) > 1e-12 {
		t.Errorf("Overconstrained = %v, want [0.1]", got)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	if err := experiments.RenderTableI(&buf, []float64{0.5, 0.68}, 3.5); err != nil {
		t.Fatalf("RenderTableI: %v", err)
	}
	if !strings.Contains(buf.String(), "Table I") || !strings.Contains(buf.String(), "0.68") {
		t.Errorf("table I output: %q", buf.String())
	}

	res := sweepFixture(t)
	buf.Reset()
	if err := experiments.RenderSweep(&buf, res, []int{1, 2}); err != nil {
		t.Fatalf("RenderSweep: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"[good] raw best cut", "[rand] normalized cut", "CPU ms/trial", "T500"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q", want)
		}
	}

	buf.Reset()
	rows := []experiments.TableIIRow{{Instance: "X", Fraction: 0.1, AvgPasses: 3.5, AvgPctMoved: 42}}
	if err := experiments.RenderTableII(&buf, rows); err != nil {
		t.Fatalf("RenderTableII: %v", err)
	}
	if !strings.Contains(buf.String(), "42.0") {
		t.Errorf("table II output: %q", buf.String())
	}

	buf.Reset()
	rows3 := []experiments.TableIIIRow{
		{Instance: "X", Fraction: 0.1, Cutoff: 1, AvgCut: 10},
		{Instance: "X", Fraction: 0.1, Cutoff: 0.05, AvgCut: 11},
	}
	if err := experiments.RenderTableIII(&buf, rows3, []float64{1, 0.05}); err != nil {
		t.Fatalf("RenderTableIII: %v", err)
	}
	if !strings.Contains(buf.String(), "no cutoff") || !strings.Contains(buf.String(), "5% moves") {
		t.Errorf("table III output: %q", buf.String())
	}

	buf.Reset()
	if err := experiments.RenderTableIV(&buf, []experiments.TableIVRow{
		{Name: "T01SA", Cells: 100, Nets: 120, Pads: 10, ExternalNets: 9, MaxPct: 3.3, FixedPct: 9.1}}); err != nil {
		t.Fatalf("RenderTableIV: %v", err)
	}
	if !strings.Contains(buf.String(), "T01SA") {
		t.Errorf("table IV output: %q", buf.String())
	}

	buf.Reset()
	if err := experiments.RenderMultiway(&buf, []experiments.MultiwayRow{
		{Instance: "X", K: 4, Regime: experiments.Good, Fraction: 0.2, AvgCut: 5, Normalized: 1.1}}); err != nil {
		t.Fatalf("RenderMultiway: %v", err)
	}
	if !strings.Contains(buf.String(), "Multiway") {
		t.Errorf("multiway output: %q", buf.String())
	}
}

// TestEasinessSignal exercises the paper's headline claim end to end at test
// scale: at 30% fixed, the single-start normalized cut sits closer to 1 than
// in the free case, i.e. extra starts stop mattering.
func TestEasinessSignal(t *testing.T) {
	h := testNetlist(t, 800, 9)
	res, err := experiments.RunSweep("T800", h, experiments.SweepConfig{
		Fractions:  []float64{0, 0.30},
		Starts:     []int{1, 8},
		Trials:     3,
		Tolerance:  0.05,
		GoodStarts: 8,
		Seed:       9,
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	bFree := startsBenefit(res, experiments.Rand, 0)
	bFixed := startsBenefit(res, experiments.Rand, 0.30)
	t.Logf("rand-regime 1-start/8-start cut ratio: free=%.3f, 30%%fixed=%.3f", bFree, bFixed)
	if bFixed > bFree+0.15 {
		t.Errorf("extra starts still matter a lot at 30%% fixed (%.3f) vs free (%.3f)", bFixed, bFree)
	}
}

func TestDefaultCutoffs(t *testing.T) {
	cs := experiments.DefaultCutoffs()
	if len(cs) != 5 || cs[0] != 1 || cs[len(cs)-1] != 0.05 {
		t.Errorf("DefaultCutoffs = %v", cs)
	}
}

func TestMultilevelConfigZeroUsable(t *testing.T) {
	// The sweep must work with an entirely zero ML config (library default).
	h := testNetlist(t, 200, 10)
	_, err := experiments.RunSweep("tiny", h, experiments.SweepConfig{
		Fractions: []float64{0},
		Starts:    []int{1},
		Trials:    1,
		Tolerance: 0.1,
		Seed:      10,
	})
	if err != nil {
		t.Fatalf("RunSweep with defaults: %v", err)
	}
	_ = multilevel.Config{}
}

func TestConstraintStudy(t *testing.T) {
	h := testNetlist(t, 400, 11)
	rows, err := experiments.ConstraintStudy("T400", h, experiments.SweepConfig{
		Fractions:  []float64{0, 0.30},
		Trials:     2,
		Tolerance:  0.05,
		GoodStarts: 3,
		Seed:       11,
	})
	if err != nil {
		t.Fatalf("ConstraintStudy: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Fraction == 0 {
			if r.Report.ConstrainedNetFraction != 0 || r.Report.ForcedCut != 0 {
				t.Errorf("free point has constraint: %+v", r.Report)
			}
		} else {
			if r.Report.ConstrainedNetFraction <= 0 || r.Report.TouchedFreeFraction <= 0 {
				t.Errorf("fixed point shows no constraint: %+v", r.Report)
			}
		}
		if r.StartsBenefit < 0.8 {
			t.Errorf("implausible StartsBenefit %v", r.StartsBenefit)
		}
		if r.Regime == experiments.Rand && r.Fraction == 0.30 && r.Report.ForcedCut == 0 {
			t.Error("rand fixing at 30% should force some nets cut")
		}
	}
	var buf bytes.Buffer
	if err := experiments.RenderConstraintStudy(&buf, rows); err != nil {
		t.Fatalf("RenderConstraintStudy: %v", err)
	}
	if !strings.Contains(buf.String(), "forced") {
		t.Errorf("render output: %q", buf.String())
	}
}

func TestPassProfile(t *testing.T) {
	h := testNetlist(t, 500, 12)
	rows, err := experiments.PassProfile("T500", h, experiments.FlatConfig{
		Fractions:  []float64{0, 0.30},
		Runs:       8,
		Tolerance:  0.05,
		GoodStarts: 2,
		Seed:       12,
	})
	if err != nil {
		t.Fatalf("PassProfile: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Passes == 0 {
			t.Fatalf("no improving passes recorded at %.0f%%", 100*r.Fraction)
		}
		// Deciles form a CDF ending at 1.
		prev := 0.0
		for d, v := range r.Deciles {
			if v < prev-1e-9 || v > 1.0001 {
				t.Fatalf("decile %d = %v not a CDF", d, v)
			}
			prev = v
		}
		if r.Deciles[9] < 0.999 {
			t.Errorf("CDF does not reach 1: %v", r.Deciles[9])
		}
		if r.MeanPeak < 0 || r.MeanPeak > 1 {
			t.Errorf("MeanPeak = %v", r.MeanPeak)
		}
	}
	free, fixed := rows[0], rows[1]
	t.Logf("peak within first 30%% of moves: free=%.2f, 30%%fixed=%.2f (mean peak %.3f vs %.3f)",
		free.Deciles[2], fixed.Deciles[2], free.MeanPeak, fixed.MeanPeak)
	// Paper's shape: with terminals, peaks concentrate at least as early as
	// in the free case (allow noise).
	if fixed.Deciles[2] < free.Deciles[2]-0.25 {
		t.Errorf("early-peak concentration did not hold: free=%.2f fixed=%.2f",
			free.Deciles[2], fixed.Deciles[2])
	}
	var buf bytes.Buffer
	if err := experiments.RenderPassProfile(&buf, rows); err != nil {
		t.Fatalf("RenderPassProfile: %v", err)
	}
	if !strings.Contains(buf.String(), "Pass peak positions") {
		t.Errorf("render output: %q", buf.String())
	}
}

func TestStartsRequired(t *testing.T) {
	h := testNetlist(t, 600, 13)
	// 8 trials: at 3 the tiny fixture's start counts are noise-dominated and
	// the easiness margin below flips on many seeds.
	rows, err := experiments.StartsRequired("T600", h, experiments.SweepConfig{
		Fractions:  []float64{0, 0.30},
		Trials:     8,
		Tolerance:  0.05,
		GoodStarts: 3,
		Seed:       13,
	})
	if err != nil {
		t.Fatalf("StartsRequired: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AvgStarts < 3 || r.AvgStarts > 16 {
			t.Errorf("avg starts = %v outside [3,16] (patience 2 means >= 3)", r.AvgStarts)
		}
	}
	// The paper's easiness claim: the 30%-fixed instances should not demand
	// more adaptive starts than the free instance (allow 1 start of noise).
	var free, fixed float64
	for _, r := range rows {
		if r.Regime == experiments.Rand {
			if r.Fraction == 0 {
				free = r.AvgStarts
			} else {
				fixed = r.AvgStarts
			}
		}
	}
	t.Logf("adaptive starts: free=%.1f, 30%%fixed=%.1f", free, fixed)
	if fixed > free+2 {
		t.Errorf("fixed instance demanded more starts (%.1f) than free (%.1f)", fixed, free)
	}
	var buf bytes.Buffer
	if err := experiments.RenderStartsRequired(&buf, rows); err != nil {
		t.Fatalf("RenderStartsRequired: %v", err)
	}
	if !strings.Contains(buf.String(), "Multistart effort") {
		t.Errorf("render output: %q", buf.String())
	}
}

func TestSweepCSV(t *testing.T) {
	res := sweepFixture(t)
	var buf bytes.Buffer
	if err := experiments.SweepCSV(&buf, res); err != nil {
		t.Fatalf("SweepCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Points) {
		t.Fatalf("csv lines = %d, want %d", len(lines), 1+len(res.Points))
	}
	if !strings.HasPrefix(lines[0], "instance,regime,fraction,starts") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "T500,") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestOverconstrainedEmpty(t *testing.T) {
	if got := experiments.Overconstrained(&experiments.SweepResult{}, 1); len(got) != 0 {
		t.Errorf("Overconstrained on empty result = %v", got)
	}
	// Two points cannot have an interior maximum.
	res := &experiments.SweepResult{Points: []experiments.SweepPoint{
		{Regime: experiments.Good, Starts: 1, Fraction: 0, AvgBestCut: 5},
		{Regime: experiments.Good, Starts: 1, Fraction: 0.5, AvgBestCut: 9},
	}}
	if got := experiments.Overconstrained(res, 1); len(got) != 0 {
		t.Errorf("two-point result flagged %v", got)
	}
}
