package hypergraph

import (
	"fmt"
	"slices"
	"sync"
)

// ContractOptions controls Contract behaviour.
type ContractOptions struct {
	// MergeParallelNets combines nets with identical pin sets into a single
	// net whose weight is the sum of the originals. Multilevel coarsening
	// enables this to keep coarse hypergraphs small.
	MergeParallelNets bool
}

// ContractScratch holds the reusable working state of Contract: the cluster
// mark array, the per-net collapsed-pin buffer, the growing coarse CSR
// accumulation buffers, the open-addressing hash table used for parallel-net
// merging, and the vertex-CSR construction cursors. Reusing one scratch
// across the levels of a coarsening descent (and across multistart
// hierarchies) removes nearly all of Contract's per-call allocations; only
// the right-sized arrays owned by the returned coarse hypergraph are
// allocated fresh.
//
// A ContractScratch must not be used by two contractions concurrently. The
// returned hypergraph never aliases scratch memory, so a scratch may be
// released (or pooled) as soon as Contract returns.
type ContractScratch struct {
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

// NewContractScratch returns an empty ContractScratch; buffers are allocated
// lazily on first use and retained between contractions.
func NewContractScratch() *ContractScratch { return &ContractScratch{} }

// contractScratchPool caches scratches for callers of Contract. Sequential
// contractions on one goroutine (the levels of a coarsening descent) reuse
// one warm scratch; a bounded worker pool upstream keeps one per worker.
var contractScratchPool = sync.Pool{New: func() any { return NewContractScratch() }}

// Contract builds the coarse hypergraph induced by the clustering clusterOf,
// which maps each vertex of h to a cluster id in [0, numClusters). Cluster
// weights are the sums of member weights in every resource; nets are
// projected onto clusters, with pins collapsed to distinct clusters and nets
// spanning fewer than two clusters dropped. A cluster is marked as a pad only
// when all of its members are pads.
//
// The returned NetMap maps each original net to its coarse net id, or -1 when
// the net was dropped (or merged into another, when MergeParallelNets is set,
// in which case it maps to the survivor).
//
// Contract draws its working buffers from an internal pool; use ContractInto
// to manage the scratch explicitly.
func Contract(h *Hypergraph, clusterOf []int32, numClusters int, opts ContractOptions) (*Hypergraph, []int32, error) {
	s := contractScratchPool.Get().(*ContractScratch)
	defer contractScratchPool.Put(s)
	return ContractInto(h, clusterOf, numClusters, opts, s)
}

// ContractInto is Contract using the caller's scratch. It produces output
// bit-identical to Contract (and to the frozen test-only reference): the
// same coarse net order, pin order, weights and net map for any input.
func ContractInto(h *Hypergraph, clusterOf []int32, numClusters int, opts ContractOptions, s *ContractScratch) (*Hypergraph, []int32, error) {
	if len(clusterOf) != h.numVerts {
		return nil, nil, fmt.Errorf("hypergraph: clusterOf has %d entries for %d vertices", len(clusterOf), h.numVerts)
	}
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
			return nil, nil, fmt.Errorf("hypergraph: vertex %d mapped to cluster %d outside [0,%d)", v, c, numClusters)
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
			return nil, nil, fmt.Errorf("hypergraph: cluster %d has no members", c)
		}
		coarse.isPad[c] = s.allPads[c]
	}
	for i := 0; i < r; i++ {
		coarse.totalWeight[i] = h.totalWeight[i]
	}

	// Project nets into the scratch accumulation buffers.
	netMap := make([]int32, h.numNets)
	s.mark = growInts(s.mark, numClusters)
	for c := 0; c < numClusters; c++ {
		s.mark[c] = -1
	}
	s.pins = s.pins[:0]
	s.offsets = append(s.offsets[:0], 0)
	s.weights = s.weights[:0]
	var tableMask uint64
	if opts.MergeParallelNets {
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
		tableMask = uint64(size - 1)
	}
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
			netMap[e] = -1
			continue
		}
		if opts.MergeParallelNets {
			slices.Sort(s.collapsed)
			slot := hashPins(s.collapsed) & tableMask
			merged := false
			for {
				id := s.table[slot]
				if id < 0 {
					s.table[slot] = int32(len(s.weights))
					break
				}
				if pinsEqual(s.pins[s.offsets[id]:s.offsets[id+1]], s.collapsed) {
					s.weights[id] += h.netWeights[e]
					netMap[e] = id
					merged = true
					break
				}
				slot = (slot + 1) & tableMask
			}
			if merged {
				continue
			}
		}
		netMap[e] = int32(len(s.weights))
		s.pins = append(s.pins, s.collapsed...)
		s.offsets = append(s.offsets, int32(len(s.pins)))
		s.weights = append(s.weights, h.netWeights[e])
	}

	// Copy the accumulated CSR into right-sized arrays owned by the result:
	// coarse hypergraphs outlive the scratch (multistart hierarchies retain
	// every level), so they must not alias reusable buffers.
	coarse.numNets = len(s.weights)
	coarse.netOffsets = append(make([]int32, 0, len(s.offsets)), s.offsets...)
	coarse.netPins = append(make([]int32, 0, len(s.pins)), s.pins...)
	coarse.netWeights = append(make([]int64, 0, len(s.weights)), s.weights...)
	buildVertexCSRInto(coarse, s)
	return coarse, netMap, nil
}

// buildVertexCSRInto is buildVertexCSR with the fill cursors taken from the
// scratch; vertOffsets/vertNets are allocated fresh for the result.
func buildVertexCSRInto(h *Hypergraph, s *ContractScratch) {
	h.vertOffsets = make([]int32, h.numVerts+1)
	for _, v := range h.netPins {
		h.vertOffsets[v+1]++
	}
	for v := 0; v < h.numVerts; v++ {
		h.vertOffsets[v+1] += h.vertOffsets[v]
	}
	h.vertNets = make([]int32, len(h.netPins))
	s.cursor = growInts(s.cursor, h.numVerts)
	copy(s.cursor, h.vertOffsets[:h.numVerts])
	for e := 0; e < h.numNets; e++ {
		for _, v := range h.Pins(e) {
			h.vertNets[s.cursor[v]] = int32(e)
			s.cursor[v]++
		}
	}
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

func pinsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
