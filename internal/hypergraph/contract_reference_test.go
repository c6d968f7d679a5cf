package hypergraph

import (
	"fmt"
	"sort"
)

// contractReference is the frozen pre-scratch implementation of Contract,
// retained verbatim in a test-only file: differential tests assert
// Contract's rewritten allocation-free path produces bit-identical output,
// and TestContractAllocReduction and BenchmarkContract measure the alloc
// reduction against it. It allocates a string-keyed map entry per distinct
// coarse net and grows the coarse CSR by append, which dominated
// coarsening's allocation profile.
func contractReference(h *Hypergraph, clusterOf []int32, numClusters int, merge bool) (*Hypergraph, []int32, error) {
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
	seenMember := make([]bool, numClusters)
	allPads := make([]bool, numClusters)
	for i := range allPads {
		allPads[i] = true
	}
	for v := 0; v < h.numVerts; v++ {
		c := clusterOf[v]
		if c < 0 || int(c) >= numClusters {
			return nil, nil, fmt.Errorf("hypergraph: vertex %d mapped to cluster %d outside [0,%d)", v, c, numClusters)
		}
		seenMember[c] = true
		if !h.IsPad(v) {
			allPads[c] = false
		}
		for i := 0; i < r; i++ {
			coarse.weights[i][c] += h.weights[i][v]
		}
	}
	for c := 0; c < numClusters; c++ {
		if !seenMember[c] {
			return nil, nil, fmt.Errorf("hypergraph: cluster %d has no members", c)
		}
		coarse.isPad[c] = allPads[c]
	}
	for i := 0; i < r; i++ {
		coarse.totalWeight[i] = h.totalWeight[i]
	}

	// Project nets.
	netMap := make([]int32, h.numNets)
	mark := make([]int32, numClusters)
	for i := range mark {
		mark[i] = -1
	}
	var (
		coarsePins    []int32
		coarseOffsets = []int32{0}
		coarseWeights []int64
		scratch       []int32
	)
	// key of a sorted pin list, for parallel-net merging.
	byKey := map[string]int32{}
	keyBuf := make([]byte, 0, 64)
	for e := 0; e < h.numNets; e++ {
		scratch = scratch[:0]
		for _, v := range h.Pins(e) {
			c := clusterOf[v]
			if mark[c] != int32(e) {
				mark[c] = int32(e)
				scratch = append(scratch, c)
			}
		}
		if len(scratch) < 2 {
			netMap[e] = -1
			continue
		}
		if merge {
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			keyBuf = keyBuf[:0]
			for _, c := range scratch {
				keyBuf = append(keyBuf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
			}
			if id, ok := byKey[string(keyBuf)]; ok {
				coarseWeights[id] += h.netWeights[e]
				netMap[e] = id
				continue
			}
			byKey[string(keyBuf)] = int32(len(coarseWeights))
		}
		netMap[e] = int32(len(coarseWeights))
		coarsePins = append(coarsePins, scratch...)
		coarseOffsets = append(coarseOffsets, int32(len(coarsePins)))
		coarseWeights = append(coarseWeights, h.netWeights[e])
	}
	coarse.numNets = len(coarseWeights)
	coarse.netOffsets = coarseOffsets
	coarse.netPins = coarsePins
	coarse.netWeights = coarseWeights
	buildVertexCSR(coarse, nil)
	return coarse, netMap, nil
}
