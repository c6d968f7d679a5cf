package partition

import "repro/internal/hypergraph"

// Assignment maps each vertex to its part (0..k-1). Part indices fit in an
// int8 because MaxParts is 64.
type Assignment []int8

// Clone returns a copy of a.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// PartWeights returns the total primary-resource-first weight matrix
// w[part][resource] for assignment a over h.
func PartWeights(h *hypergraph.Hypergraph, a Assignment, k int) [][]int64 {
	nr := h.NumResources()
	w := make([][]int64, k)
	for p := range w {
		w[p] = make([]int64, nr)
	}
	for v := 0; v < h.NumVertices(); v++ {
		for r := 0; r < nr; r++ {
			w[a[v]][r] += h.WeightIn(v, r)
		}
	}
	return w
}

// Cut returns the total weight of nets spanning more than one part
// (the min-cut objective of the paper).
func Cut(h *hypergraph.Hypergraph, a Assignment) int64 {
	var cut int64
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		first := a[pins[0]]
		for _, v := range pins[1:] {
			if a[v] != first {
				cut += h.NetWeight(e)
				break
			}
		}
	}
	return cut
}

// CutNets returns the number of nets spanning more than one part, ignoring
// net weights.
func CutNets(h *hypergraph.Hypergraph, a Assignment) int {
	n := 0
	for e := 0; e < h.NumNets(); e++ {
		pins := h.Pins(e)
		first := a[pins[0]]
		for _, v := range pins[1:] {
			if a[v] != first {
				n++
				break
			}
		}
	}
	return n
}

// KMinus1 returns the (lambda-1) objective: for each net, (number of parts
// it spans - 1) times its weight. For bipartitioning this equals Cut.
func KMinus1(h *hypergraph.Hypergraph, a Assignment) int64 {
	var total int64
	var seen Mask
	for e := 0; e < h.NumNets(); e++ {
		seen = 0
		for _, v := range h.Pins(e) {
			seen |= Single(int(a[v]))
		}
		total += int64(seen.Count()-1) * h.NetWeight(e)
	}
	return total
}

// SOED returns the sum-of-external-degrees objective: for each cut net, the
// number of parts it spans times its weight (uncut nets contribute nothing).
// SOED = KMinus1 + Cut for any assignment.
func SOED(h *hypergraph.Hypergraph, a Assignment) int64 {
	var total int64
	var seen Mask
	for e := 0; e < h.NumNets(); e++ {
		seen = 0
		for _, v := range h.Pins(e) {
			seen |= Single(int(a[v]))
		}
		if n := seen.Count(); n > 1 {
			total += int64(n) * h.NetWeight(e)
		}
	}
	return total
}
