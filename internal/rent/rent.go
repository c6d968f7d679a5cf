// Package rent provides Rent's-rule analytics: expected terminal counts for
// blocks of a given size and the block-size thresholds of the paper's
// Table I.
//
// Rent's rule states that a block of C cells in a layout with Rent parameter
// p exposes on average T = k * C^p external (propagated) terminals, where k
// is the average number of pins per cell (about 3.5 for the designs the
// paper considers). In a top-down placement flow those terminals become the
// fixed vertices of the block's partitioning instance.
package rent

import (
	"fmt"
	"math"
)

// DefaultPinsPerCell is the paper's assumed average pins per cell, k = 3.5.
const DefaultPinsPerCell = 3.5

// ExpectedTerminals returns T = k * C^p, the expected number of propagated
// terminals for a block of c cells.
func ExpectedTerminals(c float64, p, k float64) float64 {
	return k * math.Pow(c, p)
}

// FixedFraction returns the expected fraction of fixed vertices in the
// partitioning instance induced by a block of c cells: T / (C + T).
func FixedFraction(c float64, p, k float64) float64 {
	t := ExpectedTerminals(c, p, k)
	return t / (c + t)
}

// BlockSizeThreshold returns the block size below which the expected number
// of fixed vertices exceeds fraction pct (e.g. 0.05, 0.10, 0.20) of the
// total vertices in the instance — the quantity tabulated in the paper's
// Table I. Solving T/(C+T) = pct with T = k*C^p gives
//
//	C = (k * (1-pct) / pct)^(1/(1-p)).
//
// It returns an error for degenerate inputs (p >= 1 makes the fraction
// independent of or increasing with block size).
func BlockSizeThreshold(p, k, pct float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("rent: Rent exponent p=%v outside (0,1)", p)
	}
	if pct <= 0 || pct >= 1 {
		return 0, fmt.Errorf("rent: fraction pct=%v outside (0,1)", pct)
	}
	if k <= 0 {
		return 0, fmt.Errorf("rent: pins per cell k=%v must be positive", k)
	}
	return math.Pow(k*(1-pct)/pct, 1/(1-p)), nil
}

// TableIRow is one row of the paper's Table I: for a Rent parameter p, the
// block sizes below which the expected fixed-vertex fraction exceeds 5%,
// 10%, and 20%.
type TableIRow struct {
	P          float64
	Cells5Pct  float64
	Cells10Pct float64
	Cells20Pct float64
}

// TableI computes Table I rows for the given Rent parameters with k pins per
// cell (use DefaultPinsPerCell for the paper's setting).
func TableI(ps []float64, k float64) ([]TableIRow, error) {
	rows := make([]TableIRow, 0, len(ps))
	for _, p := range ps {
		c5, err := BlockSizeThreshold(p, k, 0.05)
		if err != nil {
			return nil, err
		}
		c10, err := BlockSizeThreshold(p, k, 0.10)
		if err != nil {
			return nil, err
		}
		c20, err := BlockSizeThreshold(p, k, 0.20)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIRow{P: p, Cells5Pct: c5, Cells10Pct: c10, Cells20Pct: c20})
	}
	return rows, nil
}
