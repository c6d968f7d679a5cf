package main

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bookshelf"
)

func TestRunWritesPlacement(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.pl")
	if err := run("IBM01S", 0.02, 1, out, ""); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			t.Fatalf("malformed line %q", sc.Text())
		}
		lines++
	}
	if lines < 200 {
		t.Errorf("placement file has %d lines", lines)
	}
}

func TestRunUnknownPreset(t *testing.T) {
	if err := run("NOPE", 0.1, 1, "", ""); err == nil {
		t.Error("want error for unknown preset")
	}
}

func TestRunWritesGSRC(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "ibm")
	if err := run("IBM01S", 0.02, 1, "", base); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := bookshelf.ReadGSRC(dir, "ibm")
	if err != nil {
		t.Fatalf("ReadGSRC: %v", err)
	}
	if got.H.NumVertices() < 200 {
		t.Errorf("vertices = %d", got.H.NumVertices())
	}
	fixedPads := 0
	for v := 0; v < got.H.NumVertices(); v++ {
		if got.H.IsPad(v) && got.Fixed[v] {
			fixedPads++
		}
	}
	if fixedPads == 0 {
		t.Error("no fixed pads in .pl")
	}
}

// TestBadScaleExit2: through the real flag parser, a -scale that is NaN,
// infinite or not positive stops placer with exit status 2 and a message
// naming the flag.
func TestBadScaleExit2(t *testing.T) {
	if args := os.Getenv("PLACER_TEST_ARGS"); args != "" {
		os.Args = append([]string{"placer"}, strings.Fields(args)...)
		main()
		return
	}
	for _, scale := range []string{"NaN", "Inf", "-Inf", "0", "-0.5"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleExit2$")
		cmd.Env = append(os.Environ(), "PLACER_TEST_ARGS=-scale "+scale)
		msg, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(msg), "placer: -scale") {
			t.Errorf("placer -scale %s: %v, %q; want exit status 2 naming -scale", scale, err, msg)
		}
	}
}
