// Package hypergraph provides the core hypergraph data structure used
// throughout the partitioning testbed.
//
// A hypergraph consists of vertices (circuit cells and pads) and nets
// (hyperedges). Each net connects two or more vertices; each vertex may carry
// one or more weights (resources), the first of which is conventionally cell
// area. The representation is a compressed sparse row (CSR) layout in both
// directions (net -> pins and vertex -> nets), which makes FM-style gain
// updates and coarsening cache-friendly and allocation-free.
//
// Hypergraphs are immutable once built; use Builder to construct one, and
// Contract or InducedSubgraph to derive new hypergraphs from existing ones.
package hypergraph

import "fmt"

// Hypergraph is an immutable vertex/net incidence structure with weights.
// The zero value is an empty hypergraph; use a Builder to create non-empty
// instances.
type Hypergraph struct {
	numVerts int
	numNets  int

	// CSR net -> pins.
	netOffsets []int32 // len numNets+1
	netPins    []int32 // len = total pins

	// CSR vertex -> incident nets.
	vertOffsets []int32 // len numVerts+1
	vertNets    []int32 // len = total pins

	// weights[r][v] is the weight of vertex v in resource r.
	// weights[0] is the primary resource (cell area). Always >= 1 resource.
	weights [][]int64

	netWeights []int64 // len numNets

	// isPad marks I/O pad vertices (typically zero-area terminals).
	isPad []bool

	totalWeight []int64 // per resource

	vertNames []string // optional, nil when unnamed
}

// NumVertices returns the number of vertices.
func (h *Hypergraph) NumVertices() int { return h.numVerts }

// NumNets returns the number of nets.
func (h *Hypergraph) NumNets() int { return h.numNets }

// NumPins returns the total number of pins (vertex/net incidences).
func (h *Hypergraph) NumPins() int { return len(h.netPins) }

// NumResources returns the number of weight resources per vertex (>= 1).
func (h *Hypergraph) NumResources() int { return len(h.weights) }

// Pins returns the vertices of net e. The returned slice aliases internal
// storage and must not be modified.
func (h *Hypergraph) Pins(e int) []int32 {
	return h.netPins[h.netOffsets[e]:h.netOffsets[e+1]]
}

// NetsOf returns the nets incident to vertex v. The returned slice aliases
// internal storage and must not be modified.
func (h *Hypergraph) NetsOf(v int) []int32 {
	return h.vertNets[h.vertOffsets[v]:h.vertOffsets[v+1]]
}

// NetSize returns the number of pins on net e.
func (h *Hypergraph) NetSize(e int) int {
	return int(h.netOffsets[e+1] - h.netOffsets[e])
}

// Weight returns the primary-resource weight (area) of vertex v.
func (h *Hypergraph) Weight(v int) int64 { return h.weights[0][v] }

// WeightIn returns the weight of vertex v in resource r.
func (h *Hypergraph) WeightIn(v, r int) int64 { return h.weights[r][v] }

// NetWeight returns the weight of net e.
func (h *Hypergraph) NetWeight(e int) int64 { return h.netWeights[e] }

// TotalWeight returns the total primary-resource weight over all vertices.
func (h *Hypergraph) TotalWeight() int64 { return h.totalWeight[0] }

// TotalWeightIn returns the total weight in resource r over all vertices.
func (h *Hypergraph) TotalWeightIn(r int) int64 { return h.totalWeight[r] }

// IsPad reports whether vertex v is an I/O pad.
func (h *Hypergraph) IsPad(v int) bool { return h.isPad != nil && h.isPad[v] }

// NumPads returns the number of pad vertices.
func (h *Hypergraph) NumPads() int {
	n := 0
	for _, p := range h.isPad {
		if p {
			n++
		}
	}
	return n
}

// VertexName returns the name of vertex v, or a generated "v<i>" name when
// the hypergraph is unnamed.
func (h *Hypergraph) VertexName(v int) string {
	if h.vertNames != nil && h.vertNames[v] != "" {
		return h.vertNames[v]
	}
	return fmt.Sprintf("v%d", v)
}

// MaxVertexWeight returns the largest primary-resource vertex weight,
// or 0 for an empty hypergraph.
func (h *Hypergraph) MaxVertexWeight() int64 {
	var m int64
	for _, w := range h.weights[0] {
		if w > m {
			m = w
		}
	}
	return m
}

// String returns a one-line summary, e.g. "hypergraph{v=833 e=902 pins=2901}".
func (h *Hypergraph) String() string {
	return fmt.Sprintf("hypergraph{v=%d e=%d pins=%d}", h.numVerts, h.numNets, len(h.netPins))
}
