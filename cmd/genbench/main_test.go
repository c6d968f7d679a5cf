package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bookshelf"
	"repro/internal/gen"
)

func TestRunWritesSuite(t *testing.T) {
	dir := t.TempDir()
	presets := gen.IBMPresets()[:1]
	if err := run(dir, presets, 0.02, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	// 8 specs x 4 files + TABLE_IV.txt.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8*4+1 {
		t.Errorf("wrote %d files, want %d", len(entries), 8*4+1)
	}
	// A derived half-chip bundle reads back with fixed terminals.
	p, err := bookshelf.ReadProblem(dir, "IBM01SB_L1_V0_V")
	if err != nil {
		t.Fatalf("ReadProblem: %v", err)
	}
	if p.NumFixed() == 0 {
		t.Error("derived instance has no fixed terminals")
	}
	if _, err := os.Stat(filepath.Join(dir, "TABLE_IV.txt")); err != nil {
		t.Errorf("TABLE_IV.txt missing: %v", err)
	}
}

// TestBadScaleExit2: through the real flag parser, a -scale that is NaN,
// infinite or not positive stops genbench with exit status 2 and a message
// naming the flag.
func TestBadScaleExit2(t *testing.T) {
	if args := os.Getenv("GENBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"genbench"}, strings.Fields(args)...)
		main()
		return
	}
	out := t.TempDir()
	for _, scale := range []string{"NaN", "Inf", "-Inf", "0", "-0.5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleExit2$")
		cmd.Env = append(os.Environ(), "GENBENCH_TEST_ARGS=-out "+out+" -scale "+scale)
		msg, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), "genbench: -scale") {
			t.Errorf("genbench -scale %s: %v, %q; want exit status 2 naming -scale", scale, err, msg)
		}
	}
}
