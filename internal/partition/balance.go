package partition

import (
	"fmt"
	"math"

	"repro/internal/hypergraph"
)

// Balance holds per-part, per-resource weight bounds: part p is balanced
// when Min[p][r] <= weight(p, r) <= Max[p][r] for every resource r.
//
// The paper's experiments use a 2% tolerance around exact bisection of cell
// area; the proposed benchmark format generalizes this to per-part capacities
// with absolute or relative tolerances and k > 1 resources per module.
type Balance struct {
	Min [][]int64 // [part][resource]
	Max [][]int64 // [part][resource]
}

// NumParts returns the number of parts the balance constraint covers.
func (b Balance) NumParts() int { return len(b.Max) }

// NumResources returns the number of resources per part.
func (b Balance) NumResources() int {
	if len(b.Max) == 0 {
		return 0
	}
	return len(b.Max[0])
}

// NewBisection returns a 2-way balance allowing each side to deviate from
// exact bisection of every resource by tol (a fraction of the total, e.g.
// 0.02 for the paper's 2% tolerance).
func NewBisection(h *hypergraph.Hypergraph, tol float64) Balance {
	return NewUniform(h, 2, tol)
}

// NewUniform returns a k-way balance with target total/k per part per
// resource and an allowed deviation of tol*total (rounded outward).
func NewUniform(h *hypergraph.Hypergraph, k int, tol float64) Balance {
	r := h.NumResources()
	b := Balance{Min: make([][]int64, k), Max: make([][]int64, k)}
	for p := 0; p < k; p++ {
		b.Min[p] = make([]int64, r)
		b.Max[p] = make([]int64, r)
		for i := 0; i < r; i++ {
			total := float64(h.TotalWeightIn(i))
			target := total / float64(k)
			dev := tol * total
			b.Max[p][i] = ceilLoose(target + dev)
			mn := floorLoose(target - dev)
			if mn < 0 {
				mn = 0
			}
			b.Min[p][i] = mn
		}
	}
	return b
}

// ceilLoose and floorLoose round with a small tolerance so that values that
// are integers up to float64 rounding error (e.g. 100*1.1) land on the
// intended integer.
func ceilLoose(x float64) int64  { return int64(math.Ceil(x - 1e-9)) }
func floorLoose(x float64) int64 { return int64(math.Floor(x + 1e-9)) }

// Admits reports whether the per-part weights w ([part][resource]) satisfy
// the balance bounds.
func (b Balance) Admits(w [][]int64) bool {
	for p := range b.Max {
		for r := range b.Max[p] {
			if w[p][r] > b.Max[p][r] || w[p][r] < b.Min[p][r] {
				return false
			}
		}
	}
	return true
}

// Validate checks structural sanity (equal dimensions, Min <= Max) and that
// the bounds can accommodate the hypergraph's total weight in every resource.
func (b Balance) Validate(h *hypergraph.Hypergraph) error {
	if len(b.Min) != len(b.Max) {
		return fmt.Errorf("partition: balance has %d min rows and %d max rows", len(b.Min), len(b.Max))
	}
	if len(b.Max) == 0 {
		return fmt.Errorf("partition: balance has no parts")
	}
	nr := len(b.Max[0])
	if nr != h.NumResources() {
		return fmt.Errorf("partition: balance has %d resources, hypergraph has %d", nr, h.NumResources())
	}
	sumMin := make([]int64, nr)
	sumMax := make([]int64, nr)
	for p := range b.Max {
		if len(b.Min[p]) != nr || len(b.Max[p]) != nr {
			return fmt.Errorf("partition: balance row %d has inconsistent resource count", p)
		}
		for r := 0; r < nr; r++ {
			if b.Min[p][r] > b.Max[p][r] {
				return fmt.Errorf("partition: part %d resource %d has min %d > max %d", p, r, b.Min[p][r], b.Max[p][r])
			}
			sumMin[r] += b.Min[p][r]
			sumMax[r] += b.Max[p][r]
		}
	}
	for r := 0; r < nr; r++ {
		t := h.TotalWeightIn(r)
		if sumMax[r] < t {
			return fmt.Errorf("partition: resource %d max capacities sum to %d < total weight %d", r, sumMax[r], t)
		}
		if sumMin[r] > t {
			return fmt.Errorf("partition: resource %d min requirements sum to %d > total weight %d", r, sumMin[r], t)
		}
	}
	return nil
}
