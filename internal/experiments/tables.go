package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/benchgen"
	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

// FlatConfig parameterizes the single-start studies run serially on one
// fixture: the flat LIFO-FM Tables II and III, the pass profile and the
// refinement-policy study.
type FlatConfig struct {
	// Fractions of vertices to fix in the Good regime (terminals "fixed in
	// a good location", as Section III specifies). Default DefaultFractions.
	Fractions []float64
	// Runs is the number of single starts averaged (the paper uses 50).
	Runs int
	// Tolerance is the balance tolerance (paper: 0.02).
	Tolerance float64
	// GoodStarts finds the reference solution (default 8).
	GoodStarts int
	// ML configures the multilevel engine: the reference solve of every
	// study, and both policies of PolicyStudy.
	ML   multilevel.Config
	Seed uint64
}

func (c FlatConfig) withDefaults() FlatConfig {
	if c.Fractions == nil {
		c.Fractions = DefaultFractions()
	}
	if c.Runs <= 0 {
		c.Runs = 50
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.02
	}
	if c.GoodStarts <= 0 {
		c.GoodStarts = 8
	}
	return c
}

// fixture finds the best-known solution of the free bisection of h and draws
// a nested fix schedule for it, serially, from rng.
func (c FlatConfig) fixture(h *hypergraph.Hypergraph, rng *rand.Rand) (*fixture, error) {
	return newFixture(h, 2, c.Tolerance, c.ML, 1, multilevel.Spec{Starts: c.GoodStarts}, rng)
}

// TableIIRow reports LIFO-FM pass statistics at one fixing level: the
// average number of passes per run and the average percentage of movable
// vertices whose moves were retained per pass, excluding the first pass
// (moves past the retained prefix are wasted and undone; the paper observes
// this percentage falls as terminals are added).
type TableIIRow struct {
	Instance    string
	Fraction    float64
	AvgPasses   float64
	AvgPctMoved float64
}

// TableII runs the paper's Table II protocol on h.
func TableII(name string, h *hypergraph.Hypergraph, cfg FlatConfig) ([]TableIIRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7ab1e2))
	fx, err := cfg.fixture(h, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: table II on %s: %w", name, err)
	}
	var rows []TableIIRow
	for _, frac := range cfg.Fractions {
		prob := fx.sched.Apply(fx.base, frac, Good)
		var passes, pctSum float64
		var pctN int
		for run := 0; run < cfg.Runs; run++ {
			res, err := fm.RunFromRandom(prob, fm.Config{Policy: fm.LIFO}, rng)
			if err != nil {
				return nil, fmt.Errorf("experiments: table II on %s at %.1f%%: %w", name, 100*frac, err)
			}
			passes += float64(len(res.Passes))
			for i, ps := range res.Passes {
				if i == 0 || res.Movable == 0 {
					continue
				}
				pctSum += 100 * float64(ps.Kept) / float64(res.Movable)
				pctN++
			}
		}
		row := TableIIRow{Instance: name, Fraction: frac, AvgPasses: passes / float64(cfg.Runs)}
		if pctN > 0 {
			row.AvgPctMoved = pctSum / float64(pctN)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DefaultCutoffs are the move-limit fractions studied in Table III: no
// cutoff, then 50%, 25%, 10% and 5% of the movable vertices per pass
// (first pass exempt).
func DefaultCutoffs() []float64 { return []float64{1, 0.5, 0.25, 0.10, 0.05} }

// TableIIIRow reports the effect of one pass cutoff at one fixing level:
// average cut and average CPU per single LIFO-FM start.
type TableIIIRow struct {
	Instance string
	Fraction float64
	Cutoff   float64 // 1 means no cutoff
	AvgCut   float64
	AvgCPU   time.Duration
}

// TableIII runs the paper's Table III protocol on h.
func TableIII(name string, h *hypergraph.Hypergraph, cutoffs []float64, cfg FlatConfig) ([]TableIIIRow, error) {
	cfg = cfg.withDefaults()
	if cutoffs == nil {
		cutoffs = DefaultCutoffs()
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x7ab1e3))
	fx, err := cfg.fixture(h, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: table III on %s: %w", name, err)
	}
	var rows []TableIIIRow
	for _, frac := range cfg.Fractions {
		prob := fx.sched.Apply(fx.base, frac, Good)
		for _, cutoff := range cutoffs {
			fmCfg := fm.Config{Policy: fm.LIFO, MaxPassFraction: cutoff}
			var cutSum float64
			var cpu time.Duration
			for run := 0; run < cfg.Runs; run++ {
				t0 := time.Now()
				res, err := fm.RunFromRandom(prob, fmCfg, rng)
				if err != nil {
					return nil, fmt.Errorf("experiments: table III on %s at %.1f%%: %w", name, 100*frac, err)
				}
				cpu += time.Since(t0)
				cutSum += float64(res.Cut)
			}
			rows = append(rows, TableIIIRow{
				Instance: name,
				Fraction: frac,
				Cutoff:   cutoff,
				AvgCut:   cutSum / float64(cfg.Runs),
				AvgCPU:   cpu / time.Duration(cfg.Runs),
			})
		}
	}
	return rows, nil
}

// TableIVRow is one line of the paper's Table IV: parameters of a derived
// fixed-terminals benchmark instance.
type TableIVRow struct {
	Name         string
	Cells        int
	Nets         int
	Pads         int
	ExternalNets int
	MaxPct       float64
	FixedPct     float64 // fixed vertices as % of instance vertices
}

// TableIV summarizes derived benchmark instances.
func TableIV(instances []*benchgen.Instance) []TableIVRow {
	rows := make([]TableIVRow, 0, len(instances))
	for _, inst := range instances {
		rows = append(rows, TableIVRow{
			Name:         inst.Name,
			Cells:        inst.Stats.Cells,
			Nets:         inst.Stats.Nets,
			Pads:         inst.Stats.Pads,
			ExternalNets: inst.Stats.ExternalNets,
			MaxPct:       inst.Stats.MaxPct,
			FixedPct:     100 * inst.Problem.FixedFraction(),
		})
	}
	return rows
}

// MultiwayRow is one data point of the multiway extension experiment (the
// paper's open question 1: is multiway partitioning as affected by fixed
// terminals?).
type MultiwayRow struct {
	Instance   string
	K          int
	Regime     Regime
	Fraction   float64
	AvgCut     float64
	Normalized float64
}

// MultiwaySweep runs a reduced Figure-1-style sweep with k-way partitioning
// (k a power of two): multilevel recursive bisection followed by a direct
// k-way FM refinement pass.
func MultiwaySweep(name string, h *hypergraph.Hypergraph, k int, cfg SweepConfig) ([]MultiwayRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3a9))
	base := partition.NewFree(h, k, cfg.Tolerance)
	kway := func(prob *partition.Problem) (partition.Assignment, int64, error) {
		r, err := multilevel.RecursiveBisect(prob, cfg.ML, rng)
		if err != nil {
			return nil, 0, err
		}
		ref, err := fm.Refine(prob, r.Assignment, fm.Config{Policy: fm.CLIP})
		if err != nil {
			return nil, 0, err
		}
		return ref.Assignment, ref.Cut, nil
	}
	best := partition.Assignment(nil)
	var bestCut int64 = 1 << 62
	for s := 0; s < cfg.GoodStarts; s++ {
		a, cut, err := kway(base)
		if err != nil {
			return nil, fmt.Errorf("experiments: multiway good solution: %w", err)
		}
		if cut < bestCut {
			bestCut, best = cut, a
		}
	}
	sched, err := NewFixSchedule(h, k, best, rng)
	if err != nil {
		return nil, err
	}
	var rows []MultiwayRow
	for _, regime := range []Regime{Good, Rand} {
		for _, frac := range cfg.Fractions {
			prob := sched.Apply(base, frac, regime)
			var sum float64
			instBest := int64(1) << 62
			for trial := 0; trial < cfg.Trials; trial++ {
				_, cut, err := kway(prob)
				if err != nil {
					return nil, fmt.Errorf("experiments: multiway %v %.1f%%: %w", regime, 100*frac, err)
				}
				sum += float64(cut)
				if cut < instBest {
					instBest = cut
				}
			}
			row := MultiwayRow{
				Instance: name, K: k, Regime: regime, Fraction: frac,
				AvgCut: sum / float64(cfg.Trials),
			}
			ref := float64(bestCut)
			if regime == Rand {
				ref = float64(instBest)
			}
			if ref > 0 {
				row.Normalized = row.AvgCut / ref
			} else {
				row.Normalized = 1
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Overconstrained returns the fractions at which the good-regime average cut
// for the given starts count exceeds both neighbouring fractions — the
// paper's "relatively overconstrained" nonmonotonicity signal.
func Overconstrained(res *SweepResult, starts int) []float64 {
	var pts []*SweepPoint
	for i := range res.Points {
		p := &res.Points[i]
		if p.Regime == Good && p.Starts == starts {
			pts = append(pts, p)
		}
	}
	var out []float64
	for i := 1; i+1 < len(pts); i++ {
		if pts[i].AvgBestCut > pts[i-1].AvgBestCut && pts[i].AvgBestCut > pts[i+1].AvgBestCut {
			out = append(out, pts[i].Fraction)
		}
	}
	return out
}
