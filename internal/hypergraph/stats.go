package hypergraph

import (
	"fmt"
	"strings"
)

// Stats summarizes a hypergraph's structural parameters, in the style of the
// benchmark-parameter tables in the ISPD-98 suite and in Table IV of the
// paper.
type Stats struct {
	Vertices int
	Nets     int
	Pins     int
	Pads     int

	TotalWeight   int64
	MaxWeight     int64
	MaxWeightPct  float64 // largest cell as % of total cell area ("Max%")
	AvgDegree     float64 // pins per vertex
	AvgNetSize    float64 // pins per net
	MaxNetSize    int
	NetSizeCounts map[int]int // net size -> count, for degree-distribution checks
}

// ComputeStats returns structural statistics for h.
func ComputeStats(h *Hypergraph) Stats {
	s := Stats{
		Vertices:      h.NumVertices(),
		Nets:          h.NumNets(),
		Pins:          h.NumPins(),
		Pads:          h.NumPads(),
		TotalWeight:   h.TotalWeight(),
		MaxWeight:     h.MaxVertexWeight(),
		NetSizeCounts: map[int]int{},
	}
	if s.TotalWeight > 0 {
		s.MaxWeightPct = 100 * float64(s.MaxWeight) / float64(s.TotalWeight)
	}
	if s.Vertices > 0 {
		s.AvgDegree = float64(s.Pins) / float64(s.Vertices)
	}
	if s.Nets > 0 {
		s.AvgNetSize = float64(s.Pins) / float64(s.Nets)
	}
	for e := 0; e < h.NumNets(); e++ {
		sz := h.NetSize(e)
		s.NetSizeCounts[sz]++
		if sz > s.MaxNetSize {
			s.MaxNetSize = sz
		}
	}
	return s
}

// String renders the stats as a short human-readable block.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vertices=%d nets=%d pins=%d pads=%d\n", s.Vertices, s.Nets, s.Pins, s.Pads)
	fmt.Fprintf(&b, "total weight=%d max weight=%d (%.2f%%)\n", s.TotalWeight, s.MaxWeight, s.MaxWeightPct)
	fmt.Fprintf(&b, "avg degree=%.2f avg net size=%.2f max net size=%d", s.AvgDegree, s.AvgNetSize, s.MaxNetSize)
	return b.String()
}
