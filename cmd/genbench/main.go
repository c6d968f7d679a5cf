// Command genbench generates the synthetic IBM01S-IBM05S circuits, places
// them top-down, derives the fixed-terminals benchmark suite of the paper's
// Section IV, and writes everything as bookshelf bundles plus a Table IV
// summary.
//
// Usage:
//
//	genbench -out bench [-preset IBM01S | -all] [-scale 0.25] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/benchgen"
	"repro/internal/bookshelf"
	"repro/internal/experiments"
	"repro/internal/gen"
)

func main() {
	var (
		out    = flag.String("out", "bench", "output directory")
		preset = flag.String("preset", "", "single preset to generate (e.g. IBM01S)")
		all    = flag.Bool("all", false, "generate all IBM01S-IBM05S presets")
		scale  = flag.Float64("scale", 1.0, "scale factor for cell/pad counts")
		seed   = flag.Uint64("seed", 1, "random seed for placement")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) { // NaN fails too
		fmt.Fprintf(os.Stderr, "genbench: -scale %v: want a finite factor > 0\n", *scale)
		os.Exit(2)
	}
	var presets []gen.Preset
	switch {
	case *preset != "":
		pr, err := gen.PresetByName(*preset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genbench:", err)
			os.Exit(2)
		}
		presets = []gen.Preset{pr}
	case *all:
		presets = gen.IBMPresets()
	default:
		presets = gen.IBMPresets()[:1]
	}
	if err := run(*out, presets, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "genbench:", err)
		os.Exit(1)
	}
}

func run(out string, presets []gen.Preset, scale float64, seed uint64) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var instances []*benchgen.Instance
	for _, pr := range presets {
		pl, insts, err := benchgen.Suite(pr, scale, seed, 0)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %v placed, HPWL = %.0f\n", pr.Name, pl.H, pl.HPWL())
		for _, inst := range insts {
			if err := bookshelf.WriteProblem(out, inst.Name, inst.Problem); err != nil {
				return fmt.Errorf("writing %s: %w", inst.Name, err)
			}
		}
		instances = append(instances, insts...)
	}
	if err := experiments.RenderTableIV(os.Stdout, experiments.TableIV(instances)); err != nil {
		return err
	}
	summary, err := os.Create(filepath.Join(out, "TABLE_IV.txt"))
	if err != nil {
		return err
	}
	defer summary.Close()
	fmt.Printf("wrote %d bundles to %s\n", len(instances), out)
	return experiments.RenderTableIV(summary, experiments.TableIV(instances))
}
