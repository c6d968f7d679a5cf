// Command experiments regenerates the paper's tables and figures, and the
// extension studies, on the synthetic IBM01S-IBM05S circuits. It is the one
// harness behind every number EXPERIMENTS.md reports.
//
// Usage:
//
//	experiments -exp table1|fig1|fig2|table2|table3|table4|multiway|
//	                 constraint|profile|starts|objective|policy|all
//	            [-scale 0.25] [-trials 10] [-seed 1] [-workers 0]
//	            [-objective cut|km1] [-stats]
//	            [-csv sweep.csv] [-cpuprofile cpu.pprof]
//	            [-memprofile mem.pprof]
//
// The experiment ids beyond the paper's tables and figures are the extension
// studies: multiway (4-way recursive bisection sweep), constraint
// (constraint-strength sweep), profile (within-pass gain profiles), starts
// (multistart-effort curve), objective (cut- vs km1-optimized multistart at
// k in {2,4,8}) and policy (CLIP vs LIFO refinement in the multilevel
// engine). table2, table3 and table4 run all five circuits; every other
// study runs IBM01S (fig2: IBM03S). -csv additionally writes the fig1/fig2
// sweep data as CSV for external plotting.
//
// -scale must be finite and > 0, and -trials at least 1; the single-start
// tables (table2, table3, profile) average max(-trials, 10) runs.
//
// -objective selects the metric every multilevel run in the studies
// (table4's placements aside) optimizes and selects starts by ("cut", the
// default, or "km1"); the objective study itself always runs both.
//
// Independent experiment cells, and the placements behind table4, run on
// -workers goroutines (0 = GOMAXPROCS); results are identical for every
// worker count.
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
	"io"
	"math"
	"os"

	"repro/internal/benchgen"
	"repro/internal/experiments"
	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/profiling"
	"repro/internal/rent"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id: table1, fig1, fig2, table2, table3, table4, multiway, constraint, profile, starts, objective, policy or all")
		objective  = flag.String("objective", "cut", "metric multilevel runs optimize and select by: cut or km1")
		scale      = flag.Float64("scale", 0.25, "scale factor for circuit sizes (finite, > 0)")
		trials     = flag.Int("trials", 10, "trials per data point, at least 1 (paper: 50)")
		seed       = flag.Uint64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "goroutines for independent cells (0 = GOMAXPROCS)")
		csvOut     = flag.String("csv", "", "also write fig1/fig2 sweep data as CSV to this file")
		stats      = flag.Bool("stats", false, "print per-phase timings and FM kernel work counters after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	csvPath = *csvOut
	cellWorkers = *workers
	// A -scale that is NaN, infinite or not positive, or a -trials below 1,
	// would otherwise run on degenerate circuits or a default trial count.
	obj, err := fm.ParseObjective(*objective)
	switch {
	case err != nil:
	case !(*scale > 0) || math.IsInf(*scale, 1):
		err = fmt.Errorf("-scale %v: want a finite factor > 0", *scale)
	case *trials < 1:
		err = fmt.Errorf("-trials %d: want at least 1", *trials)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	mlConfig = multilevel.Config{Objective: obj}
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

// csvPath, when set, receives the sweep data of figure runs as CSV.
var csvPath string

// cellWorkers bounds the goroutines running independent experiment cells.
var cellWorkers int

// mlConfig is the multilevel engine config the studies run with: defaults,
// plus the -objective choice and, with -stats, one PhaseStats sink that
// accumulates phase timings and FM kernel work counters across every
// multilevel run (updated atomically, so concurrent cells are safe; the
// per-phase wall-clock numbers overlap under -workers > 1 and are only
// attributable serially).
var mlConfig multilevel.Config

var (
	sixFractions  = []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50}
	fourFractions = []float64{0, 0.10, 0.30, 0.50}
)

// run regenerates experiment exp, or every experiment in order for "all".
func run(exp string, scale float64, trials int, seed uint64) error {
	sweep := func(fracs []float64) experiments.SweepConfig {
		return experiments.SweepConfig{Fractions: fracs, Trials: trials, Seed: seed, Workers: cellWorkers, ML: mlConfig}
	}
	flat := func(fracs []float64) experiments.FlatConfig {
		return experiments.FlatConfig{Fractions: fracs, Runs: max(trials, 10), Seed: seed, ML: mlConfig}
	}
	ibm01s, err := netlist("IBM01S", scale)
	if err != nil {
		return err
	}
	h := ibm01s.H
	all := []struct {
		id  string
		run func() error
	}{
		{"table1", func() error {
			return experiments.RenderTableI(os.Stdout, []float64{0.50, 0.60, 0.68, 0.75}, rent.DefaultPinsPerCell)
		}},
		{"fig1", func() error { return figure("IBM01S", h, sweep(nil)) }},
		{"fig2", func() error {
			ibm03s, err := netlist("IBM03S", scale)
			if err != nil {
				return err
			}
			return figure("IBM03S", ibm03s.H, sweep(nil))
		}},
		{"table2", func() error {
			var rows []experiments.TableIIRow
			err := eachIBM(scale, func(name string, h *hypergraph.Hypergraph) error {
				r, err := experiments.TableII(name, h, flat(sixFractions))
				rows = append(rows, r...)
				return err
			})
			return show(experiments.RenderTableII, rows, err)
		}},
		{"table3", func() error {
			cutoffs := experiments.DefaultCutoffs()
			var rows []experiments.TableIIIRow
			err := eachIBM(scale, func(name string, h *hypergraph.Hypergraph) error {
				r, err := experiments.TableIII(name, h, cutoffs, flat(fourFractions))
				rows = append(rows, r...)
				return err
			})
			if err != nil {
				return err
			}
			return experiments.RenderTableIII(os.Stdout, rows, cutoffs)
		}},
		{"table4", func() error {
			var instances []*benchgen.Instance
			for _, pr := range gen.IBMPresets() {
				_, insts, err := benchgen.Suite(pr, scale, seed, cellWorkers)
				if err != nil {
					return err
				}
				instances = append(instances, insts...)
			}
			return experiments.RenderTableIV(os.Stdout, experiments.TableIV(instances))
		}},
		{"multiway", func() error {
			rows, err := experiments.MultiwaySweep("IBM01S", h, 4, sweep(sixFractions))
			return show(experiments.RenderMultiway, rows, err)
		}},
		{"constraint", func() error {
			rows, err := experiments.ConstraintStudy("IBM01S", h, sweep(sixFractions))
			return show(experiments.RenderConstraintStudy, rows, err)
		}},
		{"profile", func() error {
			rows, err := experiments.PassProfile("IBM01S", h, flat(fourFractions))
			return show(experiments.RenderPassProfile, rows, err)
		}},
		{"starts", func() error {
			rows, err := experiments.StartsRequired("IBM01S", h, sweep(sixFractions))
			return show(experiments.RenderStartsRequired, rows, err)
		}},
		{"objective", func() error {
			rows, err := experiments.ObjectiveStudy("IBM01S", h, []int{2, 4, 8}, sweep(fourFractions))
			return show(experiments.RenderObjectiveStudy, rows, err)
		}},
		{"policy", func() error {
			cfg := flat(fourFractions)
			cfg.Runs = trials
			rows, err := experiments.PolicyStudy("IBM01S", h, cfg)
			return show(experiments.RenderPolicy, rows, err)
		}},
	}
	for _, e := range all {
		if e.id == exp {
			return e.run()
		}
		if exp == "all" {
			fmt.Printf("\n===== %s =====\n", e.id)
			if err := e.run(); err != nil {
				return err
			}
		}
	}
	if exp == "all" {
		return nil
	}
	return fmt.Errorf("unknown experiment %q", exp)
}

func netlist(name string, scale float64) (*gen.Netlist, error) {
	pr, err := gen.PresetByName(name)
	if err != nil {
		return nil, err
	}
	return gen.Generate(pr.Params.Scaled(scale))
}

// show renders a study's rows to stdout, or returns the study's error.
func show[R any](render func(io.Writer, []R) error, rows []R, err error) error {
	if err != nil {
		return err
	}
	return render(os.Stdout, rows)
}

// eachIBM runs study on each of the five IBM circuits in order.
func eachIBM(scale float64, study func(name string, h *hypergraph.Hypergraph) error) error {
	for _, pr := range gen.IBMPresets() {
		nl, err := gen.Generate(pr.Params.Scaled(scale))
		if err != nil {
			return err
		}
		if err := study(pr.Name, nl.H); err != nil {
			return err
		}
	}
	return nil
}

func figure(name string, h *hypergraph.Hypergraph, cfg experiments.SweepConfig) error {
	res, err := experiments.RunSweep(name, h, cfg)
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
