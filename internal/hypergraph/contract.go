package hypergraph

import (
	"fmt"
	"slices"
	"sync"
)

// contractScratch holds the reusable working state of Contract: the cluster
// mark array, the per-net collapsed-pin buffer, the growing coarse CSR
// accumulation buffers, the open-addressing hash table used for parallel-net
// merging, and the vertex-CSR fill cursors. Reusing one scratch across the
// levels of a coarsening descent (and across multistart hierarchies) removes
// nearly all of Contract's per-call allocations; only the right-sized arrays
// owned by the returned coarse hypergraph are allocated fresh, so the result
// never aliases scratch memory.
type contractScratch struct {
	mark      []int32 // last net id that touched each cluster
	seen      []bool  // cluster has at least one member
	allPads   []bool  // cluster members are all pads
	collapsed []int32 // one net's pins collapsed to distinct clusters
	pins      []int32 // coarse pin accumulation
	offsets   []int32 // coarse net offsets accumulation
	weights   []int64 // coarse net weight accumulation
	table     []int32 // open-addressing slots: coarse net id or -1
	cursor    []int32 // vertex-CSR fill cursors
}

// contractScratchPool caches scratches for Contract. Sequential contractions
// on one goroutine (the levels of a coarsening descent) reuse one warm
// scratch; a bounded worker pool upstream keeps one per worker.
var contractScratchPool = sync.Pool{New: func() any { return new(contractScratch) }}

// Contract builds the coarse hypergraph induced by the clustering clusterOf,
// which maps each vertex of h to a cluster id in [0, numClusters). Cluster
// weights are the sums of member weights in every resource; nets are
// projected onto clusters, with pins collapsed to distinct clusters in
// ascending order and nets spanning fewer than two clusters dropped.
// Parallel nets — coarse nets with identical pin sets — merge into the first
// of them, which carries the sum of their weights. A cluster is marked as a
// pad only when all of its members are pads.
func Contract(h *Hypergraph, clusterOf []int32, numClusters int) (*Hypergraph, error) {
	if len(clusterOf) != h.numVerts {
		return nil, fmt.Errorf("hypergraph: clusterOf has %d entries for %d vertices", len(clusterOf), h.numVerts)
	}
	s := contractScratchPool.Get().(*contractScratch)
	defer contractScratchPool.Put(s)
	r := h.NumResources()
	coarse := &Hypergraph{
		numVerts:    numClusters,
		weights:     make([][]int64, r),
		totalWeight: make([]int64, r),
		isPad:       make([]bool, numClusters),
	}
	for i := 0; i < r; i++ {
		coarse.weights[i] = make([]int64, numClusters)
	}
	s.seen = growBools(s.seen, numClusters)
	s.allPads = growBools(s.allPads, numClusters)
	for c := 0; c < numClusters; c++ {
		s.seen[c] = false
		s.allPads[c] = true
	}
	for v := 0; v < h.numVerts; v++ {
		c := clusterOf[v]
		if c < 0 || int(c) >= numClusters {
			return nil, fmt.Errorf("hypergraph: vertex %d mapped to cluster %d outside [0,%d)", v, c, numClusters)
		}
		s.seen[c] = true
		if !h.IsPad(v) {
			s.allPads[c] = false
		}
		for i := 0; i < r; i++ {
			coarse.weights[i][c] += h.weights[i][v]
		}
	}
	for c := 0; c < numClusters; c++ {
		if !s.seen[c] {
			return nil, fmt.Errorf("hypergraph: cluster %d has no members", c)
		}
		coarse.isPad[c] = s.allPads[c]
	}
	for i := 0; i < r; i++ {
		coarse.totalWeight[i] = h.totalWeight[i]
	}

	// Project nets into the scratch accumulation buffers.
	s.mark = growInts(s.mark, numClusters)
	for c := 0; c < numClusters; c++ {
		s.mark[c] = -1
	}
	s.pins = s.pins[:0]
	s.offsets = append(s.offsets[:0], 0)
	s.weights = s.weights[:0]
	// Power-of-two table with load factor <= 1/2 at the h.numNets upper
	// bound on distinct coarse nets.
	size := 16
	for size < 2*h.numNets {
		size <<= 1
	}
	s.table = growInts(s.table, size)
	for i := 0; i < size; i++ {
		s.table[i] = -1
	}
	tableMask := uint64(size - 1)
nets:
	for e := 0; e < h.numNets; e++ {
		s.collapsed = s.collapsed[:0]
		for _, v := range h.Pins(e) {
			c := clusterOf[v]
			if s.mark[c] != int32(e) {
				s.mark[c] = int32(e)
				s.collapsed = append(s.collapsed, c)
			}
		}
		if len(s.collapsed) < 2 {
			continue
		}
		slices.Sort(s.collapsed)
		for slot := hashPins(s.collapsed) & tableMask; ; slot = (slot + 1) & tableMask {
			id := s.table[slot]
			if id < 0 {
				s.table[slot] = int32(len(s.weights))
				break
			}
			if slices.Equal(s.pins[s.offsets[id]:s.offsets[id+1]], s.collapsed) {
				s.weights[id] += h.netWeights[e]
				continue nets
			}
		}
		s.pins = append(s.pins, s.collapsed...)
		s.offsets = append(s.offsets, int32(len(s.pins)))
		s.weights = append(s.weights, h.netWeights[e])
	}

	// Copy the accumulated CSR into right-sized arrays owned by the result:
	// coarse hypergraphs outlive the scratch (multistart hierarchies retain
	// every level), so they must not alias reusable buffers.
	coarse.numNets = len(s.weights)
	coarse.netOffsets = slices.Clone(s.offsets)
	coarse.netPins = slices.Clone(s.pins)
	coarse.netWeights = slices.Clone(s.weights)
	s.cursor = buildVertexCSR(coarse, s.cursor)
	return coarse, nil
}

// hashPins is FNV-1a over the pin ids; pins are sorted by the caller, so
// equal pin sets hash equally.
func hashPins(pins []int32) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range pins {
		h ^= uint64(uint32(p))
		h *= 1099511628211
	}
	return h
}

// growInts returns a length-n slice reusing s's backing array when large
// enough. Contents are unspecified.
func growInts(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
