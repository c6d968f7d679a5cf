package gen_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rent"
)

// The empirical Rent-parameter fit TestRentLocality checks generated
// netlists with, and its own tests.

// rentSample is one (block size, external terminal count) observation, e.g.
// measured on a block of a top-down placement hierarchy.
type rentSample struct {
	Cells     int
	Terminals int
}

// fitRent estimates (k, p) from samples by least squares on
// log T = log k + p log C. Samples with non-positive cells or terminals are
// ignored; it returns an error when fewer than two usable, distinct block
// sizes remain.
func fitRent(samples []rentSample) (k, p float64, err error) {
	var n float64
	var sx, sy, sxx, sxy float64
	sizes := map[int]bool{}
	for _, s := range samples {
		if s.Cells <= 0 || s.Terminals <= 0 {
			continue
		}
		x := math.Log(float64(s.Cells))
		y := math.Log(float64(s.Terminals))
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		sizes[s.Cells] = true
	}
	if n < 2 || len(sizes) < 2 {
		return 0, 0, fmt.Errorf("need samples at >= 2 distinct block sizes, have %d", len(sizes))
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("degenerate samples")
	}
	p = (n*sxy - sx*sy) / den
	k = math.Exp((sy - p*sx) / n)
	return k, p, nil
}

func TestFitRecoversParameters(t *testing.T) {
	// Exact power-law samples.
	var samples []rentSample
	for _, c := range []int{16, 64, 256, 1024, 4096} {
		tm := rent.ExpectedTerminals(float64(c), 0.68, 3.5)
		samples = append(samples, rentSample{Cells: c, Terminals: int(math.Round(tm))})
	}
	k, p, err := fitRent(samples)
	if err != nil {
		t.Fatalf("fitRent: %v", err)
	}
	if math.Abs(p-0.68) > 0.02 {
		t.Errorf("fitted p = %v, want ~0.68", p)
	}
	if math.Abs(k-3.5) > 0.5 {
		t.Errorf("fitted k = %v, want ~3.5", k)
	}
}

func TestFitErrors(t *testing.T) {
	if _, _, err := fitRent(nil); err == nil {
		t.Error("want error for no samples")
	}
	same := []rentSample{{Cells: 8, Terminals: 4}, {Cells: 8, Terminals: 5}}
	if _, _, err := fitRent(same); err == nil {
		t.Error("want error for single distinct size")
	}
	junk := []rentSample{{Cells: -1, Terminals: 4}, {Cells: 8, Terminals: 0}}
	if _, _, err := fitRent(junk); err == nil {
		t.Error("want error when all samples unusable")
	}
}

func TestFitWithNoise(t *testing.T) {
	// Noisy power-law samples still fit within a loose band.
	var samples []rentSample
	for i, c := range []int{32, 64, 128, 256, 512, 1024, 2048} {
		tm := rent.ExpectedTerminals(float64(c), 0.65, 3.5)
		noise := 1.0 + 0.1*float64(i%3-1) // ±10%
		samples = append(samples, rentSample{Cells: c, Terminals: int(tm * noise)})
	}
	_, p, err := fitRent(samples)
	if err != nil {
		t.Fatalf("fitRent: %v", err)
	}
	if p < 0.55 || p > 0.75 {
		t.Errorf("noisy fit p = %v, want near 0.65", p)
	}
}
