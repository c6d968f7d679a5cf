// Command placer runs the top-down min-cut placer on a synthetic circuit and
// reports wirelength; optionally it writes the (x, y) locations, the raw
// material from which the paper's Section IV benchmarks are derived.
//
// Usage:
//
//	placer [-preset IBM01S] [-scale 0.25] [-seed 1] [-out placement.pl]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/gen"
	"repro/internal/place"
)

func main() {
	var (
		preset = flag.String("preset", "IBM01S", "circuit preset")
		scale  = flag.Float64("scale", 0.25, "scale factor")
		seed   = flag.Uint64("seed", 1, "random seed")
		out    = flag.String("out", "", "write cell locations to this file")
		gsrc   = flag.String("gsrc", "", "also write a GSRC bookshelf .nodes/.nets/.pl trio with this base path (e.g. out/ibm01s)")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) { // NaN fails too
		fmt.Fprintf(os.Stderr, "placer: -scale %v: want a finite factor > 0\n", *scale)
		os.Exit(2)
	}
	if err := run(*preset, *scale, *seed, *out, *gsrc); err != nil {
		fmt.Fprintln(os.Stderr, "placer:", err)
		os.Exit(1)
	}
}

func run(preset string, scale float64, seed uint64, out, gsrc string) error {
	pr, err := gen.PresetByName(preset)
	if err != nil {
		return err
	}
	nl, err := gen.Generate(pr.Params.Scaled(scale))
	if err != nil {
		return err
	}
	nv := nl.H.NumVertices()
	fx, fy := nl.PadPositions()
	t0 := time.Now()
	pl, err := place.Place(nl.H, place.Config{
		Width: float64(nl.GridSide), Height: float64(nl.GridSide),
		FixedX: fx, FixedY: fy,
	}, rand.New(rand.NewPCG(seed, 0x91ace)))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %v placed in %v, HPWL = %.0f\n", preset, nl.H, time.Since(t0), pl.HPWL())
	if gsrc != "" {
		dir, base := filepath.Split(gsrc)
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		fixed := make([]bool, nv)
		for v := range fixed {
			fixed[v] = nl.H.IsPad(v)
		}
		if err := bookshelf.WriteGSRC(dir, base, nl.H, pl.X, pl.Y, fixed); err != nil {
			return err
		}
		fmt.Printf("wrote %s.nodes/.nets/.pl\n", gsrc)
	}
	if out == "" {
		return nil
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for v := 0; v < nv; v++ {
		kind := "cell"
		if nl.H.IsPad(v) {
			kind = "pad"
		}
		fmt.Fprintf(w, "%s %s %.3f %.3f\n", nl.H.VertexName(v), kind, pl.X[v], pl.Y[v])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return f.Close()
}
