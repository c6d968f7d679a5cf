package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/gen"
	"repro/internal/hgr"
	"repro/internal/hypergraph"
	"repro/internal/multilevel"
	"repro/internal/partition"
)

func writeBundle(t *testing.T, dir, base string) *partition.Problem {
	t.Helper()
	nl, err := gen.Generate(gen.Params{
		Cells: 200, Pads: 8, RentExponent: 0.65, PinsPerCell: 3.6, AvgNetSize: 3.3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewBipartition(nl.H, 0.05)
	rng := rand.New(rand.NewPCG(1, 1))
	for v := 0; v < nl.H.NumVertices(); v++ {
		if nl.H.IsPad(v) {
			p.Fix(v, rng.IntN(2))
		}
	}
	if err := bookshelf.WriteProblem(dir, base, p); err != nil {
		t.Fatal(err)
	}
	return p
}

// testOpts mirrors the flag defaults; individual tests override fields from
// here.
func testOpts(dir, base string) options {
	return options{
		dir: dir, base: base, k: 2, tol: 0.02, fixSeed: 1,
		engine: "ml", kway: "direct", objective: "cut",
		starts: 1, cutoff: 1, seed: 1,
	}
}

func TestRunMultilevel(t *testing.T) {
	dir := t.TempDir()
	p := writeBundle(t, dir, "tiny")
	out := filepath.Join(dir, "tiny.sol")
	o := testOpts(dir, "tiny")
	o.starts, o.workers = 2, 2
	o.out = out
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("solution not written: %v", err)
	}
	defer f.Close()
	a, err := bookshelf.ReadSolution(f, p)
	if err != nil {
		t.Fatalf("ReadSolution: %v", err)
	}
	if err := p.Feasible(a); err != nil {
		t.Errorf("written solution infeasible: %v", err)
	}
}

// TestRunSharedCoarsen exercises -hierarchies end to end: a 2-way ml run
// with fewer hierarchies than starts must write a feasible solution
// (TestHierarchiesErrors covers the rejected combinations).
func TestRunSharedCoarsen(t *testing.T) {
	dir := t.TempDir()
	p := writeBundle(t, dir, "tiny")
	out := filepath.Join(dir, "tiny_shared.sol")
	o := testOpts(dir, "tiny")
	o.starts, o.workers, o.hierarchies = 4, 2, 2
	o.out = out
	if err := run(o); err != nil {
		t.Fatalf("run -hierarchies 2: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("solution not written: %v", err)
	}
	defer f.Close()
	a, err := bookshelf.ReadSolution(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(a); err != nil {
		t.Errorf("shared solution infeasible: %v", err)
	}
}

// TestRunObjectiveKM1 exercises -objective km1 end to end on both the 2-way
// and k-way ml paths plus a flat engine, and checks bad spellings error.
func TestRunObjectiveKM1(t *testing.T) {
	dir := t.TempDir()
	p := writeBundle(t, dir, "tiny")
	out := filepath.Join(dir, "tiny_km1.sol")
	o := testOpts(dir, "tiny")
	o.objective = "km1"
	o.starts, o.workers = 2, 2
	o.out = out
	if err := run(o); err != nil {
		t.Fatalf("run -objective km1: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("solution not written: %v", err)
	}
	defer f.Close()
	a, err := bookshelf.ReadSolution(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Feasible(a); err != nil {
		t.Errorf("km1 solution infeasible: %v", err)
	}
	flat := testOpts(dir, "tiny")
	flat.engine, flat.objective = "clip", "km1"
	if err := run(flat); err != nil {
		t.Errorf("flat engine with -objective km1: %v", err)
	}
	bad := testOpts(dir, "tiny")
	bad.objective = "wirelength"
	if err := run(bad); err == nil {
		t.Error("want error for unknown objective")
	}
}

func TestRunFlatEngines(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	for _, engine := range []string{"lifo", "clip"} {
		o := testOpts(dir, "tiny")
		o.engine, o.cutoff, o.seed = engine, 0.25, 2
		if err := run(o); err != nil {
			t.Errorf("engine %s: %v", engine, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	bogus := testOpts(dir, "tiny")
	bogus.engine = "bogus"
	if err := run(bogus); err == nil {
		t.Error("want error for unknown engine")
	}
	if err := run(testOpts(dir, "missing")); err == nil {
		t.Error("want error for missing bundle")
	}
	both := testOpts(dir, "tiny")
	both.hgrPath = filepath.Join(dir, "x.hgr")
	if err := run(both); err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("run(-base with -hgr) = %v, want mutual-exclusion error", err)
	}
	fixOnly := testOpts(dir, "tiny")
	fixOnly.fixPath = filepath.Join(dir, "x.fix")
	if err := run(fixOnly); err == nil || !strings.Contains(err.Error(), "-fix applies to -hgr input only") {
		t.Errorf("run(-base with -fix) = %v, want fix-without-hgr error", err)
	}
	frac := testOpts(dir, "tiny")
	frac.fixFraction = 1.5
	if err := run(frac); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
		t.Errorf("run(-fix-fraction 1.5) = %v, want range error", err)
	}
}

// TestCutoffNaN: a NaN or out-of-range -cutoff is an error on every engine,
// and through the real flag parser hpart exits 1, rather than solving with
// no cutoff.
func TestCutoffNaN(t *testing.T) {
	if args := os.Getenv("HPART_TEST_ARGS"); args != "" {
		os.Args = append([]string{"hpart"}, strings.Fields(args)...)
		main()
		return
	}
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	for _, cutoff := range []float64{math.NaN(), 2, -0.5} {
		for _, engine := range []string{"ml", "clip"} {
			o := testOpts(dir, "tiny")
			o.engine, o.cutoff = engine, cutoff
			if err := run(o); err == nil || !strings.Contains(err.Error(), "MaxPassFraction") {
				t.Errorf("engine %s, cutoff %v: %v, want a MaxPassFraction error", engine, cutoff, err)
			}
		}
		wantExit1(t, fmt.Sprintf("-dir %s -base tiny -cutoff %v", dir, cutoff))
	}
}

// TestStartsBelowOne: -starts below 1 is an error on every engine and
// k-way mode, and through the real flag parser hpart exits 1; no engine
// may run zero starts and report an empty best.
func TestStartsBelowOne(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	for _, starts := range []int{0, -2} {
		for _, engine := range []string{"ml", "clip", "lifo"} {
			o := testOpts(dir, "tiny")
			o.engine, o.starts = engine, starts
			if err := run(o); err == nil || !strings.Contains(err.Error(), "-starts") {
				t.Errorf("engine %s, starts %d: %v, want a -starts error", engine, starts, err)
			}
		}
	}
	writeHGRSuite(t, dir, 0.1)
	hgrPath := filepath.Join(dir, "circuit.hgr")
	for _, args := range []string{
		"-dir " + dir + " -base tiny -starts 0",
		"-dir " + dir + " -base tiny -engine clip -starts 0",
		"-dir " + dir + " -base tiny -engine lifo -starts -2",
		"-hgr " + hgrPath + " -k 4 -kway rb -starts 0",
	} {
		wantExit1(t, args)
	}
}

// TestUnknownKWay: an unknown -kway is an error on every engine and at
// every k, and through the real flag parser hpart exits 1; a 2-way or
// flat-engine run must not ignore it.
func TestUnknownKWay(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	for _, engine := range []string{"ml", "clip", "lifo"} {
		o := testOpts(dir, "tiny")
		o.engine, o.kway = engine, "bogus"
		if err := run(o); err == nil || !strings.Contains(err.Error(), "-kway") {
			t.Errorf("engine %s, -kway bogus: %v, want a -kway error", engine, err)
		}
	}
	wantExit1(t, "-dir "+dir+" -base tiny -kway bogus")
	wantExit1(t, "-dir "+dir+" -base tiny -engine clip -kway bogus")
}

// wantExit1 runs hpart's main on args through the real flag parser, in a
// child test process that takes the HPART_TEST_ARGS branch of TestCutoffNaN,
// and fails t unless it exits with status 1.
func wantExit1(t *testing.T, args string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCutoffNaN$")
	cmd.Env = append(os.Environ(), "HPART_TEST_ARGS="+args)
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("hpart %s: %v, want exit status 1", args, err)
	}
}

// TestNaNFixFractionAndTolerance: a NaN -fix-fraction, and a NaN or
// negative -tol, are rejected through the real flag parser (exit 1) instead
// of fixing nothing or failing with a bound that names neither flag.
func TestNaNFixFractionAndTolerance(t *testing.T) {
	dir := t.TempDir()
	writeHGRSuite(t, dir, 0.1)
	hgrPath := filepath.Join(dir, "circuit.hgr")
	o := testOpts("", "")
	o.hgrPath, o.tol, o.fixFraction = hgrPath, 0.1, math.NaN()
	if err := run(o); err == nil || !strings.Contains(err.Error(), "-fix-fraction") {
		t.Errorf("fix-fraction NaN: %v, want a -fix-fraction error", err)
	}
	for _, tol := range []float64{math.NaN(), -0.5} {
		o := testOpts("", "")
		o.hgrPath, o.tol = hgrPath, tol
		if err := run(o); err == nil || !strings.Contains(err.Error(), "tolerance") {
			t.Errorf("tol %v: %v, want a tolerance error", tol, err)
		}
	}
	for _, args := range []string{"-tol 0.1 -fix-fraction NaN", "-tol NaN", "-tol -0.5"} {
		wantExit1(t, "-hgr "+hgrPath+" -k 2 "+args)
	}
}

func TestRunKWayBundle(t *testing.T) {
	dir := t.TempDir()
	nl, err := gen.Generate(gen.Params{
		Cells: 200, Pads: 8, RentExponent: 0.65, PinsPerCell: 3.6, AvgNetSize: 3.3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewFree(nl.H, 4, 0.1)
	rng := rand.New(rand.NewPCG(9, 9))
	for v := 0; v < nl.H.NumVertices(); v++ {
		if nl.H.IsPad(v) {
			p.Fix(v, rng.IntN(4))
		}
	}
	if err := bookshelf.WriteProblem(dir, "quad", p); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"direct", "rb"} {
		out := filepath.Join(dir, "quad_"+mode+".sol")
		o := testOpts(dir, "quad")
		o.kway = mode
		o.starts, o.workers = 2, 2
		o.out = out
		if err := run(o); err != nil {
			t.Fatalf("run ml k=4 -kway=%s: %v", mode, err)
		}
		got, err := bookshelf.ReadProblem(dir, "quad")
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		a, err := bookshelf.ReadSolution(f, got)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Feasible(a); err != nil {
			t.Fatalf("-kway=%s solution infeasible: %v", mode, err)
		}
	}
	bogus := testOpts(dir, "quad")
	bogus.kway = "bogus"
	if err := run(bogus); err == nil {
		t.Error("want error for unknown -kway mode")
	}
	flat := testOpts(dir, "quad")
	flat.engine, flat.seed = "lifo", 2
	if err := run(flat); err != nil {
		t.Fatalf("run flat k=4: %v", err)
	}
}

// TestRunNonPowerOfTwoK exercises a k=3 bundle end to end in both -kway
// modes, which the CLI rejected before RecursiveBisect learned uneven splits.
func TestRunNonPowerOfTwoK(t *testing.T) {
	dir := t.TempDir()
	nl, err := gen.Generate(gen.Params{
		Cells: 150, Pads: 6, RentExponent: 0.65, PinsPerCell: 3.6, AvgNetSize: 3.3, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewFree(nl.H, 3, 0.1)
	rng := rand.New(rand.NewPCG(13, 13))
	for v := 0; v < nl.H.NumVertices(); v++ {
		if nl.H.IsPad(v) {
			p.Fix(v, rng.IntN(3))
		}
	}
	if err := bookshelf.WriteProblem(dir, "tri", p); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"direct", "rb"} {
		o := testOpts(dir, "tri")
		o.kway = mode
		if err := run(o); err != nil {
			t.Errorf("run ml k=3 -kway=%s: %v", mode, err)
		}
	}
}

// writeHGRSuite writes a small random instance to dir as circuit.hgr +
// circuit.fix and returns the problem it describes (k=2, tol as given).
// Built directly (not via gen) because .hgr cannot represent the generator's
// zero-area pads — hMetis weights are >= 1.
func writeHGRSuite(t *testing.T, dir string, tol float64) *partition.Problem {
	t.Helper()
	const nv = 200
	rng := rand.New(rand.NewPCG(5, 5))
	b := hypergraph.NewBuilder(1)
	for v := 0; v < nv; v++ {
		b.AddVertex(int64(1 + v%3))
	}
	for e := 0; e < 300; e++ {
		deg := 2 + rng.IntN(4)
		pins := make([]int, 0, deg)
		seen := map[int]bool{}
		for len(pins) < deg {
			v := rng.IntN(nv)
			if !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		b.AddWeightedNet(int64(1+rng.IntN(3)), pins...)
	}
	h, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := partition.NewBipartition(h, tol)
	for v := 0; v < nv; v += 25 {
		p.Fix(v, (v/25)%2)
	}
	hf, err := os.Create(filepath.Join(dir, "circuit.hgr"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hgr.WriteHGR(hf, h); err != nil {
		t.Fatal(err)
	}
	hf.Close()
	ff, err := os.Create(filepath.Join(dir, "circuit.fix"))
	if err != nil {
		t.Fatal(err)
	}
	if err := hgr.WriteFix(ff, p); err != nil {
		t.Fatal(err)
	}
	ff.Close()
	return p
}

// TestRunHGRMode drives the exchange-format path end to end: -hgr + -fix in,
// -write-parts out, and the written partition file must be a feasible
// assignment of the same instance.
func TestRunHGRMode(t *testing.T) {
	dir := t.TempDir()
	p := writeHGRSuite(t, dir, 0.05)
	parts := filepath.Join(dir, "circuit.part")
	o := testOpts("", "")
	o.hgrPath = filepath.Join(dir, "circuit.hgr")
	o.fixPath = filepath.Join(dir, "circuit.fix")
	o.tol = 0.05
	o.starts, o.workers = 2, 2
	o.writeParts = parts
	if err := run(o); err != nil {
		t.Fatalf("run -hgr: %v", err)
	}
	text, err := os.ReadFile(parts)
	if err != nil {
		t.Fatalf("partition file not written: %v", err)
	}
	lines := strings.Fields(string(text))
	if len(lines) != p.H.NumVertices() {
		t.Fatalf("partition file lists %d parts for %d vertices", len(lines), p.H.NumVertices())
	}
	a := make(partition.Assignment, len(lines))
	for v, line := range lines {
		part, err := strconv.Atoi(line)
		if err != nil || part < 0 || part >= p.K {
			t.Fatalf("vertex %d: bad part %q", v, line)
		}
		a[v] = int8(part)
	}
	if err := p.Feasible(a); err != nil {
		t.Errorf("written partition infeasible: %v", err)
	}
}

// TestRunHGRFixFraction drives the synthesized-constraints workflow: the
// pads stay fixed from the .fix file, -fix-fraction fixes more vertices on
// top, and -write-fix round-trips the effective constraint set.
func TestRunHGRFixFraction(t *testing.T) {
	dir := t.TempDir()
	writeHGRSuite(t, dir, 0.1)
	chosen := filepath.Join(dir, "chosen.fix")
	o := testOpts("", "")
	o.hgrPath = filepath.Join(dir, "circuit.hgr")
	o.fixPath = filepath.Join(dir, "circuit.fix")
	o.tol = 0.1
	o.fixFraction, o.fixSeed = 0.2, 7
	o.writeFix = chosen
	if err := run(o); err != nil {
		t.Fatalf("run -fix-fraction: %v", err)
	}
	f, err := os.Open(chosen)
	if err != nil {
		t.Fatalf("fix file not written: %v", err)
	}
	defer f.Close()
	hf, err := os.Open(o.hgrPath)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	hp, err := hgr.ReadProblem(hf, nil, 2, o.tol)
	if err != nil {
		t.Fatal(err)
	}
	masks, err := hgr.ReadFix(f, hp.H.NumVertices(), 2)
	if err != nil {
		t.Fatalf("re-read written fix: %v", err)
	}
	fixed := 0
	for _, m := range masks {
		if _, ok := m.OnlyPart(); ok {
			fixed++
		}
	}
	if want := int(0.2 * float64(hp.H.NumVertices())); fixed < want {
		t.Errorf("written fix file fixes %d vertices, want at least %d", fixed, want)
	}
}

// TestBudget pins the -workers split: starts first, the rest to each
// descent's stages, at least one and at most GOMAXPROCS stage workers.
func TestBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ n, starts, workers, stage int }{
		{0, 1, 1, 4},
		{-3, 1000, 4, 1},
		{2, 8, 2, 1},
		{3, 4, 3, 1},
		{8, 4, 4, 2},
		{7, 2, 2, 3},
		{4, 1, 1, 4},
		{1, 1, 1, 1},
		{9, 1, 1, 4},
		{100000, 1, 1, 4},
		{100000, 2, 2, 4},
	} {
		workers, stage := budget(tc.n, tc.starts)
		if workers != tc.workers || stage != tc.stage {
			t.Errorf("budget(%d, %d) = (%d, %d), want (%d, %d)", tc.n, tc.starts, workers, stage, tc.workers, tc.stage)
		}
	}
}

// TestHierarchiesKWayMatchesSolve: -hierarchies 2 -starts 4 on a k = 4 .hgr
// writes exactly the partition multilevel.Solve returns for Spec{Starts: 4,
// KWay: true, Hierarchies: 2} under hpart's seeding, at any -workers.
func TestHierarchiesKWayMatchesSolve(t *testing.T) {
	dir := t.TempDir()
	writeHGRSuite(t, dir, 0.1)
	hgrPath, fixPath := filepath.Join(dir, "circuit.hgr"), filepath.Join(dir, "circuit.fix")
	hf, err := os.Open(hgrPath)
	if err != nil {
		t.Fatal(err)
	}
	defer hf.Close()
	ff, err := os.Open(fixPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	p, err := hgr.ReadProblem(hf, ff, 4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := multilevel.Config{MaxPassFraction: 1, CoarsenWorkers: 1, RefineWorkers: 1, LocalizedFMWorkers: 1}
	res, err := multilevel.Solve(context.Background(), p, cfg,
		multilevel.Spec{Starts: 4, KWay: true, Hierarchies: 2}, rand.New(rand.NewPCG(1, 0x42)))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := hgr.WriteParts(&want, res.Assignment); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		o := testOpts("", "")
		o.hgrPath, o.fixPath, o.k, o.tol = hgrPath, fixPath, 4, 0.1
		o.starts, o.hierarchies, o.workers = 4, 2, workers
		o.writeParts = filepath.Join(dir, fmt.Sprintf("w%d.part", workers))
		if err := run(o); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		got, err := os.ReadFile(o.writeParts)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Errorf("workers %d: -hierarchies 2 partition differs from Solve's", workers)
		}
	}
}

// TestHierarchiesErrors: a negative -hierarchies, and a nonzero one with a
// flat engine or with -kway rb at k > 2, is an error; through the real flag
// parser hpart exits 1.
func TestHierarchiesErrors(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	writeHGRSuite(t, dir, 0.1)
	hgrPath := filepath.Join(dir, "circuit.hgr")
	neg := testOpts(dir, "tiny")
	neg.hierarchies = -1
	flat := testOpts(dir, "tiny")
	flat.engine, flat.hierarchies = "lifo", 2
	rb := testOpts("", "")
	rb.hgrPath, rb.k, rb.tol, rb.kway, rb.starts, rb.hierarchies = hgrPath, 4, 0.1, "rb", 4, 2
	for name, o := range map[string]options{"negative": neg, "flat engine": flat, "kway rb": rb} {
		if err := run(o); err == nil || !strings.Contains(err.Error(), "-hierarchies") {
			t.Errorf("%s: %v, want a -hierarchies error", name, err)
		}
	}
	wantExit1(t, "-dir "+dir+" -base tiny -hierarchies -1")
	wantExit1(t, "-dir "+dir+" -base tiny -engine clip -hierarchies 2")
	wantExit1(t, "-hgr "+hgrPath+" -k 4 -tol 0.1 -kway rb -starts 4 -hierarchies 2")
}

// TestWriteErrors: a failed write of any of the three output files is an
// error, not a silently short file.
func TestWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	writeBundle(t, dir, "tiny")
	for _, flag := range []string{"-write-fix", "-out", "-write-parts"} {
		o := testOpts(dir, "tiny")
		switch flag {
		case "-write-fix":
			o.writeFix = "/dev/full"
		case "-out":
			o.out = "/dev/full"
		case "-write-parts":
			o.writeParts = "/dev/full"
		}
		if err := run(o); err == nil {
			t.Errorf("%s /dev/full: want a write error", flag)
		}
	}
}
