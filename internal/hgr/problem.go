package hgr

import (
	"fmt"
	"io"
	"math"

	"repro/internal/partition"
)

// ReadProblem reads an .hgr netlist plus an optional fixed-vertex file
// (fixR may be nil) into a validated k-way Problem with a uniform balance
// tolerance of tol, using the package-default Limits. See ReadProblemLimits.
func ReadProblem(hgrR, fixR io.Reader, k int, tol float64) (*partition.Problem, error) {
	return ReadProblemLimits(hgrR, fixR, k, tol, Limits{})
}

// ReadProblemLimits assembles a partitioning instance from the exchange
// formats: the hypergraph from hgrR, constraints from fixR (nil for a free
// instance), k parts, uniform balance tolerance tol (finite and non-negative;
// anything else is rejected before parsing). The result has passed both
// Problem.Validate and CheckFeasible — structurally impossible inputs
// (a vertex heavier than every part it may occupy, fixed vertices that
// overfill a part) are rejected here, at ingestion, rather than surfacing as
// an unexplained mid-solve failure.
//
// A fix file whose every line is -1 yields the same Problem (and the same
// Problem.Fingerprint) as no fix file at all, so constraint-free instances
// are identical however they were posed.
func ReadProblemLimits(hgrR, fixR io.Reader, k int, tol float64, lim Limits) (*partition.Problem, error) {
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return nil, fmt.Errorf("hgr: balance tolerance %v must be a finite non-negative number", tol)
	}
	h, err := ReadHGRLimits(hgrR, lim)
	if err != nil {
		return nil, err
	}
	p := partition.NewFree(h, k, tol)
	if fixR != nil {
		masks, err := ReadFix(fixR, h.NumVertices(), k)
		if err != nil {
			return nil, err
		}
		// Normalize the all-free case to a nil mask slice so a trivial fix
		// file cannot change the problem's fingerprint.
		all := partition.AllParts(k)
		for _, m := range masks {
			if m != all {
				p.Allowed = masks
				break
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := CheckFeasible(p); err != nil {
		return nil, err
	}
	return p, nil
}

// CheckFeasible diagnoses structural balance infeasibility that
// Problem.Validate (which only checks dimensional consistency and aggregate
// capacity) does not: a vertex too heavy for every part its mask allows, or
// fixed vertices whose combined weight overfills a part. Solvers fed such an
// instance fail eventually and obscurely — a random start that never
// admits, an FM pass with no feasible move — so the ingestion path rejects
// them up front with an error naming the offending vertex or part.
//
// A nil error does not promise a feasible assignment exists (that decision
// is NP-hard in general); it rules out the single-vertex and single-part
// certificates of infeasibility that heavy-vertex inputs actually exhibit in
// the wild.
func CheckFeasible(p *partition.Problem) error {
	nr := p.H.NumResources()
	for v := 0; v < p.H.NumVertices(); v++ {
		mask := p.MaskOf(v)
		fits := false
		for q := 0; q < p.K && !fits; q++ {
			if !mask.Contains(q) {
				continue
			}
			fits = true
			for r := 0; r < nr; r++ {
				if p.H.WeightIn(v, r) > p.Balance.Max[q][r] {
					fits = false
					break
				}
			}
		}
		if !fits {
			return fmt.Errorf("hgr: vertex %d (weight %d) exceeds the capacity of every part its mask %b allows — balance infeasible",
				v, p.H.Weight(v), uint64(mask&partition.AllParts(p.K)))
		}
	}
	fixed := make([][]int64, p.K)
	for q := range fixed {
		fixed[q] = make([]int64, nr)
	}
	for v := 0; v < p.H.NumVertices(); v++ {
		q, ok := p.FixedPart(v)
		if !ok {
			continue
		}
		for r := 0; r < nr; r++ {
			fixed[q][r] += p.H.WeightIn(v, r)
			if fixed[q][r] > p.Balance.Max[q][r] {
				return fmt.Errorf("hgr: fixed vertices overfill part %d: weight %d exceeds capacity %d in resource %d — balance infeasible",
					q, fixed[q][r], p.Balance.Max[q][r], r)
			}
		}
	}
	return nil
}
