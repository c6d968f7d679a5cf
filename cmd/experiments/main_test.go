package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAll runs every experiment id, policy included, on tiny circuits.
func TestRunAll(t *testing.T) {
	if err := run("all", 0.02, 1, 1); err != nil {
		t.Fatalf("run(all): %v", err)
	}
}

func TestRunTable1(t *testing.T) {
	if err := run("table1", 0.02, 1, 1); err != nil {
		t.Fatalf("run(table1): %v", err)
	}
}

func TestRunMultiwayTiny(t *testing.T) {
	if err := run("multiway", 0.02, 1, 1); err != nil {
		t.Fatalf("run(multiway): %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("bogus", 0.02, 1, 1); err == nil {
		t.Error("want error for unknown experiment")
	}
}

// TestBadFlagsExit2: through the real flag parser, a -scale that is NaN,
// infinite or not positive, and a -trials below 1, stop experiments with
// exit status 2 and a message naming the flag.
func TestBadFlagsExit2(t *testing.T) {
	if args := os.Getenv("EXPERIMENTS_TEST_ARGS"); args != "" {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, flag string }{
		{"-scale NaN", "-scale"},
		{"-scale Inf", "-scale"},
		{"-scale -Inf", "-scale"},
		{"-scale 0", "-scale"},
		{"-scale -0.5", "-scale"},
		{"-trials 0", "-trials"},
		{"-trials -3", "-trials"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsExit2$")
		cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_ARGS=-exp table1 "+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "experiments: "+tc.flag) {
			t.Errorf("experiments %s: %v, %q; want exit status 2 naming %s", tc.args, err, out, tc.flag)
		}
	}
}

func TestRunFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath = filepath.Join(dir, "fig.csv")
	defer func() { csvPath = "" }()
	if err := run("fig1", 0.02, 1, 1); err != nil {
		t.Fatalf("run(fig1): %v", err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("csv not written: %v", err)
	}
	if !strings.Contains(string(data), "instance,regime") {
		t.Errorf("csv content: %q", string(data)[:60])
	}
}
