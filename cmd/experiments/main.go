// Command experiments regenerates the paper's tables and figures on the
// synthetic IBM01S-IBM05S circuits.
//
// Usage:
//
//	experiments -exp table1|fig1|fig2|table2|table3|table4|multiway|
//	                 constraint|profile|starts|objective|all
//	            [-scale 0.25] [-trials 10] [-seed 1] [-workers 0]
//	            [-refine-workers 0] [-localized-fm-workers 0]
//	            [-objective cut|km1] [-stats]
//	            [-csv sweep.csv] [-cpuprofile cpu.pprof]
//	            [-memprofile mem.pprof]
//
// The experiment ids beyond the paper's tables and figures are the extension
// studies: constraint (constraint-strength sweep), profile (within-pass gain
// profiles), starts (multistart-effort curve), objective (cut- vs
// km1-optimized multistart at k in {2,4,8}). -csv additionally writes the
// fig1/fig2 sweep data as CSV for external plotting.
//
// -objective selects the metric every multilevel run in the sweeps optimizes
// and selects starts by ("cut", the default, or "km1"); the objective study
// itself always runs both.
//
// Independent experiment cells run on -workers goroutines (0 = GOMAXPROCS);
// results are identical for every worker count.
//
// -refine-workers > 0 enables the deterministic synchronous-round parallel
// refinement stage inside every multilevel run of the multistart studies and
// of the pass-profile reference solve (counts >= 1 are bit-identical to each
// other). The default 0 keeps the serial-only refinement the published study
// numbers were produced with — turning the stage on changes the exact cuts,
// not just wall-clock.
//
// -localized-fm-workers > 0 likewise enables the deterministic localized FM
// stage at the finest level of those same runs (counts >= 1 are
// bit-identical to each other); the default 0 keeps the full serial polish
// the published study numbers were produced with.
//
// -stats prints the summed wall time of all five multilevel phases and the FM
// kernel work counters after the run.
//
// -cpuprofile/-memprofile write pprof profiles of the whole run; multilevel
// phases carry pprof labels
// (phase=coarsen|init|refine_parallel|refine_localized|refine) for -tagfocus.
//
// CPU numbers are host wall-clock; the paper's were measured on 1990s Sun
// hardware, so only relative comparisons are meaningful.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/multilevel"
	"repro/internal/place"
	"repro/internal/profiling"
	"repro/internal/rent"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id: table1, fig1, fig2, table2, table3, table4, multiway, constraint, profile, starts, objective or all")
		objective  = flag.String("objective", "cut", "metric multilevel runs optimize and select by: cut or km1")
		scale      = flag.Float64("scale", 0.25, "scale factor for circuit sizes")
		trials     = flag.Int("trials", 10, "trials per data point (paper: 50)")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "goroutines for independent cells (0 = GOMAXPROCS)")
		refineW    = flag.Int("refine-workers", 0, "parallel-refinement workers per descent (0 keeps the study's serial-only refinement; counts >= 1 are bit-identical)")
		localizedW = flag.Int("localized-fm-workers", 0, "localized-FM workers at the finest level (0 keeps the study's full serial polish; counts >= 1 are bit-identical)")
		csvOut     = flag.String("csv", "", "also write fig1/fig2 sweep data as CSV to this file")
		stats      = flag.Bool("stats", false, "print per-phase timings and FM kernel work counters after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	csvPath = *csvOut
	cellWorkers = *workers
	obj, err := fm.ParseObjective(*objective)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	mlConfig = multilevel.Config{Objective: obj, RefineWorkers: *refineW, LocalizedFMWorkers: *localizedW}
	if *stats {
		mlConfig.Stats = &multilevel.PhaseStats{}
	}
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err = run(*exp, *scale, *trials, *seed)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if st := mlConfig.Stats; st != nil {
		k := st.Kernel.Snapshot()
		fmt.Printf("\nphases: coarsen %.1f ms, init %.1f ms, refine-parallel %.1f ms, refine-localized %.1f ms, refine %.1f ms\n",
			float64(st.CoarsenNS)/1e6, float64(st.InitNS)/1e6,
			float64(st.RefineParallelNS)/1e6, float64(st.RefineLocalizedNS)/1e6, float64(st.RefineNS)/1e6)
		red := "-"
		if k.PinsScanned > 0 {
			red = fmt.Sprintf("%.2fx", float64(k.PinsScanned+k.PinScansAvoided)/float64(k.PinsScanned))
		}
		fmt.Printf("fm kernel: %d locked nets skipped, %d/%d pin scans avoided/executed (%s reduction), %d bucket updates saved\n",
			k.NetsSkipped, k.PinScansAvoided, k.PinsScanned, red, k.BucketUpdatesSaved)
	}
}

func run(exp string, scale float64, trials int, seed uint64) error {
	runners := map[string]func() error{
		"table1":     func() error { return table1() },
		"fig1":       func() error { return figure("IBM01S", scale, trials, seed) },
		"fig2":       func() error { return figure("IBM03S", scale, trials, seed) },
		"table2":     func() error { return table2(scale, trials, seed) },
		"table3":     func() error { return table3(scale, trials, seed) },
		"table4":     func() error { return table4(scale, seed) },
		"multiway":   func() error { return multiway(scale, trials, seed) },
		"constraint": func() error { return constraint(scale, trials, seed) },
		"profile":    func() error { return profile(scale, trials, seed) },
		"starts":     func() error { return starts(scale, trials, seed) },
		"objective":  func() error { return objectiveStudy(scale, trials, seed) },
	}
	if exp == "all" {
		for _, id := range []string{"table1", "fig1", "fig2", "table2", "table3", "table4", "multiway", "constraint", "profile", "starts", "objective"} {
			fmt.Printf("\n===== %s =====\n", id)
			if err := runners[id](); err != nil {
				return err
			}
		}
		return nil
	}
	r, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return r()
}

func netlist(name string, scale float64) (*gen.Netlist, error) {
	pr, err := gen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	return gen.Generate(pr.Params.Scaled(scale))
}

func table1() error {
	return experiments.RenderTableI(os.Stdout, []float64{0.50, 0.60, 0.68, 0.75}, rent.DefaultPinsPerCell)
}

// csvPath, when set, receives the sweep data of figure runs as CSV.
var csvPath string

// cellWorkers bounds the goroutines running independent experiment cells.
var cellWorkers int

// mlConfig is the multilevel engine config the experiment sweeps run with:
// defaults, plus the -objective choice, the -refine-workers and
// -localized-fm-workers stages, and, with -stats, one PhaseStats sink that
// accumulates phase timings and FM kernel work counters across every
// multilevel run (updated atomically, so concurrent cells are safe; the
// per-phase wall-clock numbers overlap under -workers > 1 and are only
// attributable serially).
var mlConfig multilevel.Config

// sweepConfig is the SweepConfig of every multistart study: fracs (nil for
// the paper's schedule), trials and seed, on -workers cells with mlConfig.
func sweepConfig(fracs []float64, trials int, seed uint64) experiments.SweepConfig {
	return experiments.SweepConfig{Fractions: fracs, Trials: trials, Seed: seed, Workers: cellWorkers, ML: mlConfig}
}

func figure(name string, scale float64, trials int, seed uint64) error {
	nl, err := netlist(name, scale)
	if err != nil {
		return err
	}
	res, err := experiments.RunSweep(name, nl.H, sweepConfig(nil, trials, seed))
	if err != nil {
		return err
	}
	if err := experiments.RenderSweep(os.Stdout, res, []int{1, 2, 4, 8}); err != nil {
		return err
	}
	if oc := experiments.Overconstrained(res, 1); len(oc) > 0 {
		fmt.Printf("\nrelatively overconstrained fractions (good regime, 1 start): %v\n", oc)
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.SweepCSV(f, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	return nil
}

func table2(scale float64, trials int, seed uint64) error {
	var rows []experiments.TableIIRow
	for _, name := range []string{"IBM01S", "IBM02S", "IBM03S", "IBM04S", "IBM05S"} {
		nl, err := netlist(name, scale)
		if err != nil {
			return err
		}
		r, err := experiments.TableII(name, nl.H, experiments.FlatConfig{
			Fractions: []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50},
			Runs:      max(trials, 10),
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, r...)
	}
	return experiments.RenderTableII(os.Stdout, rows)
}

func table3(scale float64, trials int, seed uint64) error {
	cutoffs := experiments.DefaultCutoffs()
	var rows []experiments.TableIIIRow
	for _, name := range []string{"IBM01S", "IBM02S", "IBM03S", "IBM04S", "IBM05S"} {
		nl, err := netlist(name, scale)
		if err != nil {
			return err
		}
		r, err := experiments.TableIII(name, nl.H, cutoffs, experiments.FlatConfig{
			Fractions: []float64{0, 0.10, 0.30, 0.50},
			Runs:      max(trials, 10),
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		rows = append(rows, r...)
	}
	return experiments.RenderTableIII(os.Stdout, rows, cutoffs)
}

func table4(scale float64, seed uint64) error {
	var instances []*benchgen.Instance
	for _, pr := range gen.IBMPresets() {
		nl, err := gen.Generate(pr.Params.Scaled(scale))
		if err != nil {
			return err
		}
		pl, err := placeNetlist(nl, seed)
		if err != nil {
			return err
		}
		for _, spec := range benchgen.StandardSpecs(pl, pr.Name) {
			inst, err := benchgen.Derive(pl, spec, 0.02)
			if err != nil {
				return err
			}
			instances = append(instances, inst)
		}
	}
	return experiments.RenderTableIV(os.Stdout, experiments.TableIV(instances))
}

func multiway(scale float64, trials int, seed uint64) error {
	nl, err := netlist("IBM01S", scale)
	if err != nil {
		return err
	}
	rows, err := experiments.MultiwaySweep("IBM01S", nl.H, 4, sweepConfig([]float64{0, 0.05, 0.10, 0.20, 0.30, 0.50}, trials, seed))
	if err != nil {
		return err
	}
	return experiments.RenderMultiway(os.Stdout, rows)
}

func constraint(scale float64, trials int, seed uint64) error {
	nl, err := netlist("IBM01S", scale)
	if err != nil {
		return err
	}
	rows, err := experiments.ConstraintStudy("IBM01S", nl.H, sweepConfig([]float64{0, 0.05, 0.10, 0.20, 0.30, 0.50}, trials, seed))
	if err != nil {
		return err
	}
	return experiments.RenderConstraintStudy(os.Stdout, rows)
}

func profile(scale float64, trials int, seed uint64) error {
	nl, err := netlist("IBM01S", scale)
	if err != nil {
		return err
	}
	rows, err := experiments.PassProfile("IBM01S", nl.H, experiments.FlatConfig{
		Fractions: []float64{0, 0.10, 0.30, 0.50},
		Runs:      max(trials, 10),
		Seed:      seed,
		ML:        mlConfig,
	})
	if err != nil {
		return err
	}
	return experiments.RenderPassProfile(os.Stdout, rows)
}

func starts(scale float64, trials int, seed uint64) error {
	nl, err := netlist("IBM01S", scale)
	if err != nil {
		return err
	}
	rows, err := experiments.StartsRequired("IBM01S", nl.H, sweepConfig([]float64{0, 0.05, 0.10, 0.20, 0.30, 0.50}, trials, seed))
	if err != nil {
		return err
	}
	return experiments.RenderStartsRequired(os.Stdout, rows)
}

func objectiveStudy(scale float64, trials int, seed uint64) error {
	nl, err := netlist("IBM01S", scale)
	if err != nil {
		return err
	}
	rows, err := experiments.ObjectiveStudy("IBM01S", nl.H, []int{2, 4, 8}, sweepConfig([]float64{0, 0.10, 0.30, 0.50}, trials, seed))
	if err != nil {
		return err
	}
	return experiments.RenderObjectiveStudy(os.Stdout, rows)
}

func placeNetlist(nl *gen.Netlist, seed uint64) (*place.Placement, error) {
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
		FixedX: fx, FixedY: fy, Workers: cellWorkers,
	}, rand.New(rand.NewPCG(seed, 0x9ace)))
}
