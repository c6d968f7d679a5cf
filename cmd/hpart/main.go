// Command hpart partitions a fixed-terminals instance — a Bookshelf
// benchmark bundle (base.net/.are/.blk/.fix, as written by genbench or
// bookshelf.WriteProblem) or an hMetis .hgr file — and reports the cut.
//
// Usage:
//
//	hpart -dir bench -base IBM01SA_L0_V [-engine ml|lifo|clip] [-starts 4]
//	      [-kway direct|rb] [-objective cut|km1] [-cutoff 0.25] [-seed 1]
//	      [-workers 0] [-hierarchies 0] [-stats] [-cpuprofile cpu.pprof]
//	      [-memprofile mem.pprof] [-out solution.sol]
//
//	hpart -hgr circuit.hgr [-fix circuit.fix] [-k 2] [-tol 0.02]
//	      [-fix-fraction 0.2] [-fix-seed 1] [-write-fix chosen.fix]
//	      [-write-parts circuit.part] [engine flags as above]
//
// The two input modes are mutually exclusive. -hgr reads an hMetis .hgr
// netlist (fmt codes 0, 1, 10, 11); -fix adds KaHyPar-style fixed-vertex
// constraints (-1 per free vertex, a part id to fix, several ids for an
// OR-region); -k and -tol pose the instance, since unlike a Bookshelf bundle
// the exchange formats carry neither. -fix-fraction synthesizes a
// deterministic paper-style fixed-terminals regime on top (seeded by
// -fix-seed, identical to the hpartd fix_fraction field), and -write-fix
// saves the synthesized constraints so a study can be re-run or shared.
// -write-parts writes the winning assignment in the standard partition-file
// form (one part id per line) in either input mode; -out writes a Bookshelf
// .sol. See FORMATS.md for all grammars and EXPERIMENTS.md for the
// benchmark-suite workflow.
//
// -objective selects the metric runs optimize and the best start is chosen
// by: "cut" (default, the paper's weighted net cut) or "km1"
// (connectivity-minus-one). Whatever the choice, the result line reports
// cut, km1 and soed of the winning assignment.
//
// With the ml engine, -workers N (0 = GOMAXPROCS) is the run's one worker
// budget: min(N, starts) goroutines run independent starts, and each
// descent's coarsening, synchronous-round and localized FM stages share
// what is left, max(1, N / min(N, starts)) goroutines, capped at GOMAXPROCS
// (-kway rb runs its starts in turn, so its descents share all N). Every
// stage always runs; the result is bit-identical for every N.
// -hierarchies H (ml engine; 0, the default, shares nothing) amortises
// coarsening across starts: the first H starts build and fully refine
// private hierarchies, the remaining starts resample those hierarchies as
// cheap pass-cutoff follower descents; H >= -starts is the plain run. It
// applies to 2-way instances and to -kway direct; a negative H, or a
// nonzero H with a flat engine or with -kway rb at k > 2, is an error.
//
// For k > 2 instances, -kway selects how the ml engine reaches k parts:
// "direct" (default) coarsens the full k-way problem once and refines with
// direct k-way FM at every level, "rb" decomposes into recursive multilevel
// bisections (any k >= 2, not just powers of two) with a final k-way FM
// polish. Any other -kway value is an error, whatever the engine and k.
//
// -cpuprofile/-memprofile write pprof profiles of the whole run; multilevel
// phases carry pprof labels
// (phase=coarsen|init|refine_parallel|refine_localized|refine), so
// `go tool pprof -tagfocus phase=refine cpu.pprof` isolates one phase.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bookshelf"
	"repro/internal/fm"
	"repro/internal/hgr"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/profiling"
)

// options collects every run knob; flag parsing in main fills one, tests
// build them directly.
type options struct {
	// Bookshelf-bundle input mode.
	dir  string
	base string

	// Exchange-format input mode (mutually exclusive with base).
	hgrPath     string
	fixPath     string
	k           int
	tol         float64
	fixFraction float64
	fixSeed     uint64
	writeFix    string

	engine      string
	kway        string
	objective   string
	starts      int
	cutoff      float64
	seed        uint64
	workers     int
	hierarchies int
	stats       bool

	out        string
	writeParts string
}

func main() {
	var o options
	flag.StringVar(&o.dir, "dir", ".", "directory holding the benchmark bundle")
	flag.StringVar(&o.base, "base", "", "bundle base name (required unless -hgr is given)")
	flag.StringVar(&o.hgrPath, "hgr", "", "hMetis .hgr netlist to partition instead of a bundle")
	flag.StringVar(&o.fixPath, "fix", "", "KaHyPar-style fixed-vertex file for the -hgr netlist")
	flag.IntVar(&o.k, "k", 2, "number of parts for -hgr instances (bundles carry their own)")
	flag.Float64Var(&o.tol, "tol", 0.02, "balance tolerance for -hgr instances (bundles carry their own)")
	flag.Float64Var(&o.fixFraction, "fix-fraction", 0, "fix this fraction of vertices deterministically (seeded shuffle, round-robin parts)")
	flag.Uint64Var(&o.fixSeed, "fix-seed", 1, "seed for -fix-fraction's vertex choice")
	flag.StringVar(&o.writeFix, "write-fix", "", "write the instance's effective constraints as a .fix file")
	flag.StringVar(&o.engine, "engine", "ml", "partitioning engine: ml (multilevel CLIP), lifo or clip (flat FM)")
	flag.StringVar(&o.kway, "kway", "direct", "k>2 strategy for the ml engine: direct (direct k-way multilevel) or rb (recursive bisection)")
	flag.StringVar(&o.objective, "objective", "cut", "metric to optimize and select by: cut or km1")
	flag.IntVar(&o.starts, "starts", 1, "independent starts; the best result is kept")
	flag.Float64Var(&o.cutoff, "cutoff", 1, "pass cutoff fraction after the first pass, in [0,1] (0 or 1 = none)")
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.workers, "workers", 0, "worker budget, spent on starts first and the rest inside each descent (0 = GOMAXPROCS; never changes results)")
	flag.IntVar(&o.hierarchies, "hierarchies", 0, "coarsening hierarchies the ml starts share (0 = none shared)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.BoolVar(&o.stats, "stats", false, "print per-phase timings and FM kernel work counters after the run")
	flag.StringVar(&o.out, "out", "", "write the best assignment as a Bookshelf .sol file")
	flag.StringVar(&o.writeParts, "write-parts", "", "write the best assignment as a partition file (one part id per line)")
	flag.Parse()
	if o.base == "" && o.hgrPath == "" {
		fmt.Fprintln(os.Stderr, "hpart: one of -base and -hgr is required")
		flag.Usage()
		os.Exit(2)
	}
	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpart:", err)
		os.Exit(1)
	}
	err = run(o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpart:", err)
		os.Exit(1)
	}
}

// loadProblem materializes the instance the options describe from whichever
// input mode is selected, returning it with a display name.
func loadProblem(o options) (*partition.Problem, string, error) {
	if o.hgrPath != "" {
		if o.base != "" {
			return nil, "", fmt.Errorf("-base and -hgr are mutually exclusive")
		}
		hf, err := os.Open(o.hgrPath)
		if err != nil {
			return nil, "", err
		}
		defer hf.Close()
		var fixR io.Reader
		if o.fixPath != "" {
			ff, err := os.Open(o.fixPath)
			if err != nil {
				return nil, "", err
			}
			defer ff.Close()
			fixR = ff
		}
		p, err := hgr.ReadProblem(hf, fixR, o.k, o.tol)
		if err != nil {
			return nil, "", err
		}
		return p, filepath.Base(o.hgrPath), nil
	}
	if o.fixPath != "" {
		return nil, "", fmt.Errorf("-fix applies to -hgr input only (bundles carry constraints in base.fix)")
	}
	p, err := bookshelf.ReadProblem(o.dir, o.base)
	if err != nil {
		return nil, "", err
	}
	return p, o.base, nil
}

func run(o options) error {
	obj, err := fm.ParseObjective(o.objective)
	if err != nil {
		return err
	}
	if o.starts < 1 {
		return fmt.Errorf("-starts %d: want at least 1", o.starts)
	}
	if o.kway != "direct" && o.kway != "rb" {
		return fmt.Errorf("-kway %q: want direct or rb", o.kway)
	}
	if o.hierarchies < 0 {
		return fmt.Errorf("-hierarchies %d: want 0 (no sharing) or at least 1", o.hierarchies)
	}
	p, name, err := loadProblem(o)
	if err != nil {
		return err
	}
	if !(o.fixFraction >= 0 && o.fixFraction <= 1) { // NaN fails too
		return fmt.Errorf("-fix-fraction %v outside [0, 1]", o.fixFraction)
	}
	if o.fixFraction > 0 {
		partition.ApplyFixFraction(p, o.fixFraction, o.fixSeed)
		// Synthesized fixes can overfill a part just like a hostile .fix
		// file; diagnose that here rather than mid-solve.
		if err := hgr.CheckFeasible(p); err != nil {
			return err
		}
	}
	if o.writeFix != "" {
		if err := writeFile(o.writeFix, func(w io.Writer) error { return hgr.WriteFix(w, p) }); err != nil {
			return err
		}
	}
	fmt.Printf("instance %s: %v, k=%d, fixed=%d (%.1f%%)\n",
		name, p.H, p.K, p.NumFixed(), 100*p.FixedFraction())
	if o.hierarchies > 0 && (o.engine != "ml" || (p.K > 2 && o.kway == "rb")) {
		return fmt.Errorf("-hierarchies requires the ml engine on a 2-way instance or with -kway direct (engine=%s, kway=%s, k=%d)", o.engine, o.kway, p.K)
	}
	rng := rand.New(rand.NewPCG(o.seed, 0x42))
	t0 := time.Now()
	var best partition.Assignment
	var score int64 // the winning assignment's value under -objective
	var phases *multilevel.PhaseStats
	var flatKernel fm.KernelStats
	if o.stats {
		phases = &multilevel.PhaseStats{}
	}
	switch o.engine {
	case "ml":
		concurrent := o.starts // -kway rb runs its starts one after another
		if p.K > 2 && o.kway == "rb" {
			concurrent = 1
		}
		workers, stage := budget(o.workers, concurrent)
		cfg := multilevel.Config{Objective: obj, MaxPassFraction: o.cutoff, Workers: workers, CoarsenWorkers: stage, RefineWorkers: stage, LocalizedFMWorkers: stage, Stats: phases}
		switch {
		case p.K == 2 || o.kway == "direct":
			spec := multilevel.Spec{Starts: o.starts, KWay: p.K > 2, Hierarchies: o.hierarchies}
			res, err := multilevel.Solve(context.Background(), p, cfg, spec, rng)
			if err != nil {
				return err
			}
			best, score = res.Assignment, res.Score
		default:
			// Recursive bisection per start, then direct k-way FM polish on
			// the full problem.
			for s := 0; s < o.starts; s++ {
				res, err := multilevel.RecursiveBisect(p, cfg, rng)
				if err != nil {
					return err
				}
				ref, err := fm.Refine(p, res.Assignment, fm.Config{Objective: obj, MaxPassFraction: o.cutoff, Stats: flatStats(o.stats, &flatKernel)})
				if err != nil {
					return err
				}
				if best == nil || ref.Score < score {
					best, score = ref.Assignment, ref.Score
				}
			}
		}
	case "lifo", "clip":
		policy := fm.LIFO
		if o.engine == "clip" {
			policy = fm.CLIP
		}
		cfg := fm.Config{Policy: policy, Objective: obj, MaxPassFraction: o.cutoff, Stats: flatStats(o.stats, &flatKernel)}
		for s := 0; s < o.starts; s++ {
			res, err := fm.RunFromRandom(p, cfg, rng)
			if err != nil {
				return err
			}
			if best == nil || res.Score < score {
				best, score = res.Assignment, res.Score
			}
		}
	default:
		return fmt.Errorf("unknown engine %q", o.engine)
	}
	fmt.Printf("best %s over %d start(s): %d   (%.1f ms)\n",
		obj, o.starts, score, float64(time.Since(t0).Microseconds())/1000)
	fmt.Printf("objectives: cut=%d km1=%d soed=%d\n",
		partition.Cut(p.H, best), partition.KMinus1(p.H, best), partition.SOED(p.H, best))
	if o.stats {
		printStats(phases, &flatKernel)
	}
	if err := p.Feasible(best); err != nil {
		return fmt.Errorf("internal error: result infeasible: %w", err)
	}
	if o.out != "" {
		if err := writeFile(o.out, func(w io.Writer) error { return bookshelf.WriteSolution(w, p, best) }); err != nil {
			return err
		}
	}
	if o.writeParts != "" {
		return writeFile(o.writeParts, func(w io.Writer) error { return hgr.WriteParts(w, best) })
	}
	return nil
}

// budget splits the -workers budget n (<= 0 means GOMAXPROCS) over a run of
// starts: the starts get min(n, starts) workers first, and each descent's
// coarsening, round and localized stages share what is left, at most
// GOMAXPROCS. Stage counts >= 1 never change results, so the split changes
// speed only.
func budget(n, starts int) (workers, stage int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	workers = min(n, starts)
	return workers, min(max(1, n/workers), runtime.GOMAXPROCS(0))
}

// writeFile creates path, fills it with write and closes it, returning the
// first create, write or close error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("wrote %s\n", path)
	}
	return err
}

// flatStats returns the kernel-counter sink for the flat engines (nil when
// -stats is off, so the hot path skips the atomics).
func flatStats(enabled bool, k *fm.KernelStats) *fm.KernelStats {
	if !enabled {
		return nil
	}
	return k
}

// printStats reports the per-phase breakdown (multilevel engines) and the FM
// kernel's net-state-aware work counters.
func printStats(phases *multilevel.PhaseStats, flat *fm.KernelStats) {
	kernel := flat.Snapshot()
	if phases != nil {
		if phases.TotalNS() > 0 {
			fmt.Printf("phases: coarsen %.1f ms, init %.1f ms, refine-parallel %.1f ms, refine-localized %.1f ms, refine %.1f ms\n",
				float64(phases.CoarsenNS)/1e6, float64(phases.InitNS)/1e6,
				float64(phases.RefineParallelNS)/1e6, float64(phases.RefineLocalizedNS)/1e6, float64(phases.RefineNS)/1e6)
		}
		ml := phases.Kernel.Snapshot()
		kernel.NetsSkipped += ml.NetsSkipped
		kernel.PinScansAvoided += ml.PinScansAvoided
		kernel.PinsScanned += ml.PinsScanned
		kernel.BucketUpdatesSaved += ml.BucketUpdatesSaved
	}
	fmt.Printf("fm kernel: %d locked nets skipped, %d/%d pin scans avoided/executed (%s reduction), %d bucket updates saved\n",
		kernel.NetsSkipped, kernel.PinScansAvoided, kernel.PinsScanned,
		scanReduction(kernel), kernel.BucketUpdatesSaved)
}

// scanReduction renders the kernel's gain-update pin-traversal reduction over
// the frozen reference ("1.91x", or "-" before any net has been scanned).
func scanReduction(k fm.KernelStats) string {
	if k.PinsScanned == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(k.PinsScanned+k.PinScansAvoided)/float64(k.PinsScanned))
}
