package partition

import (
	"fmt"

	"repro/internal/hypergraph"
)

// clusterTerminalsResult is the outcome of clusterTerminals.
type clusterTerminalsResult struct {
	Problem *Problem
	// ClusterOf maps original vertices to vertices of the reduced problem.
	ClusterOf []int32
	// TerminalOf maps each part to its merged terminal vertex in the reduced
	// problem, or -1 when the part had no fixed vertices.
	TerminalOf []int32
}

// clusterTerminals applies the reduction observed in the paper's conclusion:
// a partitioning instance with an arbitrary number of fixed terminals is
// equivalent to one with at most one terminal per part, obtained by
// clustering all vertices fixed in a given part into a single terminal.
// Free and OR-region vertices are left as singletons.
//
// A cluster weighs the sum of its members in every resource and is a pad
// only when every member is. Each net keeps its weight, with its pins mapped
// through ClusterOf (duplicates collapsed in first-occurrence order); a net
// left spanning fewer than two clusters is dropped. Unlike the coarsening
// contraction, parallel nets are not merged, so every surviving net keeps
// its original order. The reduced problem has the same balance bounds; cut
// values of corresponding assignments are identical (see the property test).
//
// No binary runs the reduction, so it lives in a test file: the property
// tests check it, and the Constrainedness invariance test uses it as an
// oracle.
func clusterTerminals(p *Problem) (*clusterTerminalsResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	nv := p.H.NumVertices()
	clusterOf := make([]int32, nv)
	terminalOf := make([]int32, p.K)
	for i := range terminalOf {
		terminalOf[i] = -1
	}
	next := int32(0)
	// First pass: one cluster per part that has fixed vertices, in part order
	// of first appearance.
	for v := 0; v < nv; v++ {
		if part, ok := p.FixedPart(v); ok {
			if terminalOf[part] < 0 {
				terminalOf[part] = next
				next++
			}
			clusterOf[v] = terminalOf[part]
		} else {
			clusterOf[v] = -1 // assigned below
		}
	}
	for v := 0; v < nv; v++ {
		if clusterOf[v] < 0 {
			clusterOf[v] = next
			next++
		}
	}
	coarse, err := clusterHypergraph(p.H, clusterOf, int(next))
	if err != nil {
		return nil, fmt.Errorf("partition: clustering terminals: %w", err)
	}
	reduced := &Problem{H: coarse, K: p.K, Balance: p.Balance}
	reduced.ensureAllowed()
	for v := 0; v < nv; v++ {
		reduced.Allowed[clusterOf[v]] = reduced.Allowed[clusterOf[v]].Intersect(p.MaskOf(v))
	}
	if err := reduced.Validate(); err != nil {
		return nil, fmt.Errorf("partition: reduced problem invalid: %w", err)
	}
	return &clusterTerminalsResult{Problem: reduced, ClusterOf: clusterOf, TerminalOf: terminalOf}, nil
}

// clusterHypergraph merges h's vertices by clusterOf, every cluster id in
// [0, numClusters) having a member; see clusterTerminals.
func clusterHypergraph(h *hypergraph.Hypergraph, clusterOf []int32, numClusters int) (*hypergraph.Hypergraph, error) {
	r := h.NumResources()
	weights := make([]int64, numClusters*r) // cluster c's weights at [c*r, c*r+r)
	allPads := make([]bool, numClusters)
	for c := range allPads {
		allPads[c] = true
	}
	for v, c := range clusterOf {
		for i := 0; i < r; i++ {
			weights[int(c)*r+i] += h.WeightIn(v, i)
		}
		allPads[c] = allPads[c] && h.IsPad(v)
	}
	b := hypergraph.NewBuilder(r)
	b.DedupPins, b.DropSingletons = true, true
	for c := range allPads {
		b.SetPad(b.AddVertex(weights[c*r:(c+1)*r]...), allPads[c])
	}
	var pins []int
	for e := 0; e < h.NumNets(); e++ {
		pins = pins[:0]
		for _, v := range h.Pins(e) {
			pins = append(pins, int(clusterOf[v]))
		}
		b.AddWeightedNet(h.NetWeight(e), pins...)
	}
	return b.Build()
}

// Project maps an assignment of the reduced problem back to the original
// vertices.
func (r *clusterTerminalsResult) Project(reduced Assignment) Assignment {
	out := make(Assignment, len(r.ClusterOf))
	for v, c := range r.ClusterOf {
		out[v] = reduced[c]
	}
	return out
}

// Reduce maps an assignment of the original problem to the reduced problem.
// All vertices in a cluster must agree; fixed clusters take their fixed part.
func (r *clusterTerminalsResult) Reduce(original Assignment) (Assignment, error) {
	out := make(Assignment, r.Problem.H.NumVertices())
	set := make([]bool, len(out))
	for v, c := range r.ClusterOf {
		if set[c] && out[c] != original[v] {
			return nil, fmt.Errorf("partition: vertices in cluster %d assigned to different parts", c)
		}
		out[c] = original[v]
		set[c] = true
	}
	return out, nil
}
