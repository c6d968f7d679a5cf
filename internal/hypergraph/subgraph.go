package hypergraph

import "fmt"

// InducedResult is the outcome of InducedSubgraph: the sub-hypergraph plus
// mappings back to the parent.
type InducedResult struct {
	Sub *Hypergraph
	// VertexOf maps sub-vertex ids to parent vertex ids.
	VertexOf []int32
	// SubOf maps parent vertex ids to sub-vertex ids, or -1 when excluded.
	SubOf []int32
	// NetOf maps sub-net ids to parent net ids.
	NetOf []int32
	// ClippedNets lists parent nets that had pins both inside and outside
	// the kept set (these become "external nets" of the block in the
	// top-down placement sense). A clipped net is retained in the subgraph
	// only when it still spans >= 2 kept vertices.
	ClippedNets []int32
}

// InducedSubgraph extracts the sub-hypergraph induced by keep[v] == true.
// Nets are restricted to kept pins; restricted nets with fewer than two pins
// are dropped. Weights, pad flags and vertex names carry over.
func InducedSubgraph(h *Hypergraph, keep []bool) (*InducedResult, error) {
	if len(keep) != h.numVerts {
		return nil, fmt.Errorf("hypergraph: keep has %d entries for %d vertices", len(keep), h.numVerts)
	}
	res := &InducedResult{SubOf: make([]int32, h.numVerts)}
	for i := range res.SubOf {
		res.SubOf[i] = -1
	}
	r := h.NumResources()
	b := NewBuilder(r)
	ws := make([]int64, r)
	for v := 0; v < h.numVerts; v++ {
		if !keep[v] {
			continue
		}
		for i := 0; i < r; i++ {
			ws[i] = h.weights[i][v]
		}
		name := ""
		if h.vertNames != nil {
			name = h.vertNames[v]
		}
		id := b.AddCell(name, ws...)
		b.SetPad(id, h.IsPad(v))
		res.SubOf[v] = int32(id)
		res.VertexOf = append(res.VertexOf, int32(v))
	}
	var pins []int
	for e := 0; e < h.numNets; e++ {
		pins = pins[:0]
		clipped := false
		for _, v := range h.Pins(e) {
			if keep[v] {
				pins = append(pins, int(res.SubOf[v]))
			} else {
				clipped = true
			}
		}
		if clipped && len(pins) > 0 {
			res.ClippedNets = append(res.ClippedNets, int32(e))
		}
		if len(pins) < 2 {
			continue
		}
		b.AddWeightedNet(h.netWeights[e], pins...)
		res.NetOf = append(res.NetOf, int32(e))
	}
	sub, err := b.Build()
	if err != nil {
		return nil, err
	}
	res.Sub = sub
	return res, nil
}
