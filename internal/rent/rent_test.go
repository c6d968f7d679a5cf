package rent_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rent"
)

func TestExpectedTerminals(t *testing.T) {
	// T = 3.5 * 1000^0.68
	got := rent.ExpectedTerminals(1000, 0.68, 3.5)
	want := 3.5 * math.Pow(1000, 0.68)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedTerminals = %v, want %v", got, want)
	}
}

func TestFixedFraction(t *testing.T) {
	// At the threshold size the fraction equals pct by construction.
	c, err := rent.BlockSizeThreshold(0.68, 3.5, 0.20)
	if err != nil {
		t.Fatalf("BlockSizeThreshold: %v", err)
	}
	if f := rent.FixedFraction(c, 0.68, 3.5); math.Abs(f-0.20) > 1e-9 {
		t.Errorf("FixedFraction at threshold = %v, want 0.20", f)
	}
	// Smaller blocks exceed the fraction.
	if f := rent.FixedFraction(c/10, 0.68, 3.5); f <= 0.20 {
		t.Errorf("fraction below threshold size = %v, want > 0.20", f)
	}
}

func TestBlockSizeThresholdValues(t *testing.T) {
	// Hand-computed: C = (k(1-pct)/pct)^(1/(1-p)).
	c, err := rent.BlockSizeThreshold(0.68, 3.5, 0.20)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Pow(3.5*0.8/0.2, 1/0.32)
	if math.Abs(c-want)/want > 1e-12 {
		t.Errorf("threshold = %v, want %v", c, want)
	}
	// The paper's narrative: blocks of thousands of cells already exceed 20%
	// fixed at p=0.68.
	if c < 1000 || c > 20000 {
		t.Errorf("20%% threshold at p=0.68 = %v, expected in the thousands", c)
	}
}

func TestBlockSizeThresholdErrors(t *testing.T) {
	cases := []struct{ p, k, pct float64 }{
		{1.0, 3.5, 0.1},
		{0, 3.5, 0.1},
		{0.68, 0, 0.1},
		{0.68, 3.5, 0},
		{0.68, 3.5, 1},
	}
	for _, c := range cases {
		if _, err := rent.BlockSizeThreshold(c.p, c.k, c.pct); err == nil {
			t.Errorf("want error for p=%v k=%v pct=%v", c.p, c.k, c.pct)
		}
	}
}

func TestTableI(t *testing.T) {
	rows, err := rent.TableI([]float64{0.50, 0.60, 0.68, 0.75}, rent.DefaultPinsPerCell)
	if err != nil {
		t.Fatalf("TableI: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// Within a row, thresholds shrink as the required fraction grows.
		if !(r.Cells5Pct > r.Cells10Pct && r.Cells10Pct > r.Cells20Pct) {
			t.Errorf("row %d not decreasing: %+v", i, r)
		}
		// Higher Rent parameter -> larger thresholds (more terminals).
		if i > 0 && rows[i].Cells10Pct <= rows[i-1].Cells10Pct {
			t.Errorf("thresholds not increasing in p: %v <= %v", rows[i].Cells10Pct, rows[i-1].Cells10Pct)
		}
	}
}

func TestThresholdPropertyMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		p := 0.4 + float64(seed%50)/100 // 0.40..0.89
		c1, err1 := rent.BlockSizeThreshold(p, 3.5, 0.05)
		c2, err2 := rent.BlockSizeThreshold(p, 3.5, 0.10)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 > c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
