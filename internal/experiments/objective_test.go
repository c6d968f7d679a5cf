package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestObjectiveStudy(t *testing.T) {
	h := testNetlist(t, 250, 11)
	cfg := experiments.SweepConfig{
		Fractions:  []float64{0, 0.2},
		Trials:     2,
		Tolerance:  0.1,
		GoodStarts: 2,
		Seed:       11,
	}
	ks := []int{2, 4, 8}
	rows, err := experiments.ObjectiveStudy("T250", h, ks, cfg)
	if err != nil {
		t.Fatalf("ObjectiveStudy: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (3 ks x 2 fractions)", len(rows))
	}
	for _, r := range rows {
		// Selection from an identical candidate set can only help the metric
		// selected on: km1-optimized mean km1 <= cut-optimized mean km1, and
		// symmetrically for the cut.
		if r.KM1OptKM1 > r.CutOptKM1 {
			t.Errorf("k=%d %.0f%%: km1-optimized mean km1 %.1f > cut-optimized %.1f",
				r.K, 100*r.Fraction, r.KM1OptKM1, r.CutOptKM1)
		}
		if r.CutOptCut > r.KM1OptCut {
			t.Errorf("k=%d %.0f%%: cut-optimized mean cut %.1f > km1-optimized %.1f",
				r.K, 100*r.Fraction, r.CutOptCut, r.KM1OptCut)
		}
		// SOED = cut + km1 holds for means of winners too.
		for _, pair := range [][3]float64{
			{r.CutOptSOED, r.CutOptCut, r.CutOptKM1},
			{r.KM1OptSOED, r.KM1OptCut, r.KM1OptKM1},
		} {
			if diff := pair[0] - pair[1] - pair[2]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("k=%d %.0f%%: soed %.3f != cut %.3f + km1 %.3f", r.K, 100*r.Fraction, pair[0], pair[1], pair[2])
			}
		}
		// k = 2 is the control: the objectives coincide, so the optimizers
		// must return identical numbers.
		if r.K == 2 && (r.CutOptCut != r.KM1OptCut || r.CutOptKM1 != r.KM1OptKM1) {
			t.Errorf("k=2 %.0f%%: optimizers disagree (%+v)", 100*r.Fraction, r)
		}
	}
	// Determinism across worker counts.
	cfg.Workers = 3
	rows2, err := experiments.ObjectiveStudy("T250", h, ks, cfg)
	if err != nil {
		t.Fatalf("ObjectiveStudy workers=3: %v", err)
	}
	for i := range rows {
		if rows[i] != rows2[i] {
			t.Errorf("row %d differs across worker counts: %+v vs %+v", i, rows[i], rows2[i])
		}
	}
	var buf bytes.Buffer
	if err := experiments.RenderObjectiveStudy(&buf, rows); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(buf.String(), "km1-opt km1") {
		t.Error("rendered table missing header")
	}
}
