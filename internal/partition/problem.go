package partition

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync/atomic"

	"repro/internal/hypergraph"
)

// Problem is a k-way hypergraph partitioning instance with balance and
// fixed-vertex constraints.
type Problem struct {
	H *hypergraph.Hypergraph
	K int
	// Balance gives per-part weight bounds.
	Balance Balance
	// Allowed[v] is the set of parts vertex v may occupy; nil means every
	// vertex is free. A vertex whose mask has a single bit is a fixed
	// terminal.
	Allowed []Mask

	// movableCache memoizes MovableCount as count+1 (0 = unset). It is
	// accessed atomically so concurrent solvers may share one Problem;
	// Fix/Restrict invalidate it. Callers that assign Allowed directly must
	// do so before the first MovableCount call.
	movableCache int64
}

// NewFree returns a problem over h with k parts, the given uniform balance
// tolerance, and no fixed vertices.
func NewFree(h *hypergraph.Hypergraph, k int, tol float64) *Problem {
	return &Problem{H: h, K: k, Balance: NewUniform(h, k, tol)}
}

// NewBipartition returns a 2-way problem with the paper's standard setup:
// actual vertex areas and a tol (e.g. 0.02) deviation from exact bisection.
func NewBipartition(h *hypergraph.Hypergraph, tol float64) *Problem {
	return NewFree(h, 2, tol)
}

// ensureAllowed materializes the Allowed slice (all-free) when nil.
func (p *Problem) ensureAllowed() {
	if p.Allowed == nil {
		p.Allowed = make([]Mask, p.H.NumVertices())
		all := AllParts(p.K)
		for i := range p.Allowed {
			p.Allowed[i] = all
		}
	}
}

// Fix pins vertex v to part part.
func (p *Problem) Fix(v, part int) {
	p.ensureAllowed()
	p.Allowed[v] = Single(part)
	atomic.StoreInt64(&p.movableCache, 0)
}

// Restrict limits vertex v to the parts in mask (OR-region semantics).
func (p *Problem) Restrict(v int, mask Mask) {
	p.ensureAllowed()
	p.Allowed[v] = mask
	atomic.StoreInt64(&p.movableCache, 0)
}

// MaskOf returns the allowed-parts mask for vertex v.
func (p *Problem) MaskOf(v int) Mask {
	if p.Allowed == nil {
		return AllParts(p.K)
	}
	return p.Allowed[v]
}

// FixedPart returns the part vertex v is fixed in and true, or (-1, false)
// when v is not fixed to a single part.
func (p *Problem) FixedPart(v int) (int, bool) {
	if p.Allowed == nil {
		return -1, false
	}
	return p.Allowed[v].OnlyPart()
}

// IsFree reports whether vertex v may occupy every part.
func (p *Problem) IsFree(v int) bool {
	if p.Allowed == nil {
		return true
	}
	return p.Allowed[v]&AllParts(p.K) == AllParts(p.K)
}

// NumFixed returns the number of vertices fixed to a single part.
func (p *Problem) NumFixed() int {
	n := 0
	for v := 0; v < p.H.NumVertices(); v++ {
		if _, ok := p.FixedPart(v); ok {
			n++
		}
	}
	return n
}

// MovableCount returns the number of vertices not fixed to a single part.
// The first call scans Allowed once; the count is then cached (atomically,
// so a Problem shared by concurrent solvers stays race-free) until the next
// Fix or Restrict.
func (p *Problem) MovableCount() int {
	if c := atomic.LoadInt64(&p.movableCache); c > 0 {
		return int(c - 1)
	}
	n := 0
	for v := 0; v < p.H.NumVertices(); v++ {
		if _, fixed := p.FixedPart(v); !fixed {
			n++
		}
	}
	atomic.StoreInt64(&p.movableCache, int64(n)+1)
	return n
}

// FixedFraction returns the fraction of vertices fixed to a single part.
func (p *Problem) FixedFraction() float64 {
	nv := p.H.NumVertices()
	if nv == 0 {
		return 0
	}
	return float64(p.NumFixed()) / float64(nv)
}

// Validate checks the problem for structural errors: k in range, balance
// consistent with the hypergraph, masks non-empty and within k parts.
func (p *Problem) Validate() error {
	if p.H == nil {
		return fmt.Errorf("partition: problem has nil hypergraph")
	}
	if p.K < 2 || p.K > MaxParts {
		return fmt.Errorf("partition: k = %d outside [2, %d]", p.K, MaxParts)
	}
	if err := p.Balance.Validate(p.H); err != nil {
		return err
	}
	if p.Balance.NumParts() != p.K {
		return fmt.Errorf("partition: balance covers %d parts, problem has %d", p.Balance.NumParts(), p.K)
	}
	if p.Allowed != nil {
		if len(p.Allowed) != p.H.NumVertices() {
			return fmt.Errorf("partition: %d masks for %d vertices", len(p.Allowed), p.H.NumVertices())
		}
		all := AllParts(p.K)
		for v, m := range p.Allowed {
			if m&all == 0 {
				return fmt.Errorf("partition: vertex %d has no allowed part", v)
			}
		}
	}
	return nil
}

// Feasible reports whether assignment a satisfies the problem's constraints:
// every vertex in an allowed part and every part within balance.
func (p *Problem) Feasible(a Assignment) error {
	if len(a) != p.H.NumVertices() {
		return fmt.Errorf("partition: assignment has %d entries for %d vertices", len(a), p.H.NumVertices())
	}
	for v, part := range a {
		if part < 0 || int(part) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to part %d outside [0,%d)", v, part, p.K)
		}
		if !p.MaskOf(v).Contains(int(part)) {
			return fmt.Errorf("partition: vertex %d assigned to part %d but allowed mask is %b", v, part, p.MaskOf(v))
		}
	}
	w := PartWeights(p.H, a, p.K)
	if !p.Balance.Admits(w) {
		return fmt.Errorf("partition: part weights %v violate balance", w)
	}
	return nil
}

// RandomFeasible generates a random assignment respecting fixed/region masks
// and balance upper bounds, using a randomized first-fit over a shuffled
// vertex order with a largest-first fallback. It returns an error when no
// feasible assignment is found after several attempts (e.g. a genuinely
// overconstrained instance).
func RandomFeasible(p *Problem, rng *rand.Rand) (Assignment, error) {
	nv := p.H.NumVertices()
	nr := p.H.NumResources()
	seated := make([]int, 0, nv)
	for attempt := 0; attempt < 8; attempt++ {
		a := make(Assignment, nv)
		w := make([][]int64, p.K)
		for q := range w {
			w[q] = make([]int64, nr)
		}
		order := rng.Perm(nv)
		if attempt >= 4 {
			// Largest-first is more likely to satisfy tight balance.
			sortByWeightDesc(p.H, order)
		}
		// Seat forced vertices first — they have no choice, so placing them
		// after free vertices have consumed the balance headroom would fail
		// spuriously on tightly balanced instances with many terminals. The
		// stable partition keeps each group's shuffled order, as a stable
		// sort on the fixed flag would.
		seated = seated[:0]
		for _, v := range order {
			if _, fixed := p.FixedPart(v); fixed {
				seated = append(seated, v)
			}
		}
		for _, v := range order {
			if _, fixed := p.FixedPart(v); !fixed {
				seated = append(seated, v)
			}
		}
		order = seated
		ok := true
		for _, v := range order {
			mask := p.MaskOf(v)
			part := chooseFeasiblePart(p, mask, w, v, rng)
			if part < 0 {
				// Fall back to the allowed part with the most remaining
				// headroom, even if it exceeds Max; the Min check below
				// will usually still fail, forcing a retry, but on loose
				// instances this rescues borderline cases.
				ok = false
				break
			}
			a[v] = int8(part)
			for r := 0; r < nr; r++ {
				w[part][r] += p.H.WeightIn(v, r)
			}
		}
		if !ok {
			continue
		}
		if p.Balance.Admits(w) {
			return a, nil
		}
		// Upper bounds held but some part is under Min: rebalance by moving
		// free vertices from overfull to underfull parts.
		if rebalance(p, a, w, rng) && p.Balance.Admits(w) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("partition: no feasible assignment found (instance may be overconstrained)")
}

// chooseFeasiblePart picks a uniformly random allowed part that keeps every
// resource under Max, or -1 when none qualifies.
func chooseFeasiblePart(p *Problem, mask Mask, w [][]int64, v int, rng *rand.Rand) int {
	nr := p.H.NumResources()
	var buf [MaxParts]int
	candidates := buf[:0]
	for q := 0; q < p.K; q++ {
		if !mask.Contains(q) {
			continue
		}
		fits := true
		for r := 0; r < nr; r++ {
			if w[q][r]+p.H.WeightIn(v, r) > p.Balance.Max[q][r] {
				fits = false
				break
			}
		}
		if fits {
			candidates = append(candidates, q)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.IntN(len(candidates))]
}

// rebalance greedily moves free vertices from parts above Min toward parts
// below Min. Returns true when it made progress toward admitting w.
func rebalance(p *Problem, a Assignment, w [][]int64, rng *rand.Rand) bool {
	nr := p.H.NumResources()
	nv := p.H.NumVertices()
	progress := false
	for iter := 0; iter < 4; iter++ {
		under := -1
		for q := 0; q < p.K; q++ {
			for r := 0; r < nr; r++ {
				if w[q][r] < p.Balance.Min[q][r] {
					under = q
				}
			}
		}
		if under < 0 {
			return true
		}
		order := rng.Perm(nv)
		moved := false
		for _, v := range order {
			from := int(a[v])
			if from == under || !p.MaskOf(v).Contains(under) {
				continue
			}
			fits := true
			for r := 0; r < nr; r++ {
				if w[under][r]+p.H.WeightIn(v, r) > p.Balance.Max[under][r] ||
					w[from][r]-p.H.WeightIn(v, r) < 0 {
					fits = false
					break
				}
			}
			if !fits {
				continue
			}
			a[v] = int8(under)
			for r := 0; r < nr; r++ {
				w[from][r] -= p.H.WeightIn(v, r)
				w[under][r] += p.H.WeightIn(v, r)
			}
			moved, progress = true, true
			stillUnder := false
			for r := 0; r < nr; r++ {
				if w[under][r] < p.Balance.Min[under][r] {
					stillUnder = true
				}
			}
			if !stillUnder {
				break
			}
		}
		if !moved {
			return progress
		}
	}
	return progress
}

func sortByWeightDesc(h *hypergraph.Hypergraph, order []int) {
	sort.SliceStable(order, func(i, j int) bool {
		return h.Weight(order[i]) > h.Weight(order[j])
	})
}
