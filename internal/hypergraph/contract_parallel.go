package hypergraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
)

// minParallelNets is the size below which ContractParallel falls back to the
// serial ContractInto: goroutine dispatch and shard bookkeeping cost more than
// they save on the small, deep levels of a hierarchy. The threshold depends
// only on the input, never on the worker count, so the fallback cannot break
// the bit-identical-across-worker-counts contract.
// A variable only so the differential tests can force small instances
// through the parallel path.
var minParallelNets = 4096

// contractShard is the per-slot working state of ContractParallel. One shard
// serves two distinct roles, both indexed by the same slot id because the
// chunk count equals the worker count:
//
//   - mark/collapsed are *worker* storage: whichever pool goroutine processes
//     a chunk stamps clusters in its own mark array (stamps are global net
//     ids, unique across chunks, so one array serves many chunks safely).
//   - lens/pins/hashes/cnt are *chunk* outputs: results addressed by the
//     chunk index, which is what keeps the merge deterministic no matter
//     which goroutine produced them.
type contractShard struct {
	// Worker-side scratch.
	mark      []int32 // last net id that touched each cluster
	markRun   uint64  // run id mark was last cleared for
	collapsed []int32 // one net's pins collapsed to distinct clusters

	// Chunk-side outputs of the projection phase.
	lens   []int32  // per net in this chunk: distinct-cluster count (<2 = dropped)
	pins   []int32  // concatenated collapsed pins of this chunk's kept nets
	hashes []uint64 // per kept net: FNV hash of the (sorted) pins, merge mode only

	// Chunk-side vertex-CSR counters, reused as fill cursors.
	cnt []int32
}

// contractParScratch is the pooled working state of one ContractParallel
// call: the shards, the merge table and survivor metadata, and the atomic
// seen/non-pad flags of the weight phase.
type contractParScratch struct {
	shards   []*contractShard
	table    []int32
	srcChunk []int32 // per coarse net: chunk holding its pins
	srcOff   []int32 // per coarse net: offset of its pins in that chunk
	offsets  []int32
	weights  []int64
	seen     []uint32
	nonPad   []uint32
	badV     []int32 // per chunk: smallest out-of-range vertex, or -1
}

var contractParPool = sync.Pool{New: func() any { return &contractParScratch{} }}

// contractRunID tags each ContractParallel call so pooled mark arrays can be
// cleared lazily, once per run, by whichever goroutine first touches them.
var contractRunID atomic.Uint64

// chunkBounds returns the half-open range of chunk c when n items are split
// into p contiguous chunks. The split depends only on (n, p).
func chunkBounds(n, p, c int) (int, int) {
	return n * c / p, n * (c + 1) / p
}

// ContractParallel is Contract with the projection, CSR construction and
// weight accumulation spread over `workers` goroutines. Its output is
// bit-identical to Contract / ContractInto (and the frozen test-only
// reference) for every worker count: net chunks are contiguous ranges
// visited in order by a serial merge pass, pin positions in the vertex CSR
// are computed from global counts, and every cross-chunk reduction is either
// order-independent (integer sums, minima) or performed serially in chunk
// order. Worker slots select storage only, never meaning, per the
// internal/par contract.
//
// Small inputs (fewer than minParallelNets nets) and workers <= 1 take the
// serial path; the fallback condition depends only on the input.
func ContractParallel(h *Hypergraph, clusterOf []int32, numClusters int, opts ContractOptions, workers int) (*Hypergraph, []int32, error) {
	if workers <= 1 || h.numNets < minParallelNets {
		return Contract(h, clusterOf, numClusters, opts)
	}
	if len(clusterOf) != h.numVerts {
		return nil, nil, fmt.Errorf("hypergraph: clusterOf has %d entries for %d vertices", len(clusterOf), h.numVerts)
	}
	P := workers // chunk count; results are identical for every value
	s := contractParPool.Get().(*contractParScratch)
	defer contractParPool.Put(s)
	for len(s.shards) < P {
		s.shards = append(s.shards, &contractShard{})
	}
	runID := contractRunID.Add(1)

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

	// Phase 1: cluster weights, membership and pad flags, in parallel over
	// vertex ranges. Weight sums use atomic adds (64-bit integer addition is
	// exact and order-independent), membership and non-pad flags are
	// idempotent atomic stores, and each chunk tracks its smallest
	// out-of-range vertex so the error matches the serial scan.
	s.seen = growUint32s(s.seen, numClusters)
	s.nonPad = growUint32s(s.nonPad, numClusters)
	par.ForEach(P, P, func(c int) {
		lo, hi := chunkBounds(numClusters, P, c)
		clear(s.seen[lo:hi])
		clear(s.nonPad[lo:hi])
	})
	s.badV = growInts(s.badV, P)
	par.ForEachWorkerCtx(nil, P, P, func(_, ci int) {
		lo, hi := chunkBounds(h.numVerts, P, ci)
		bad := int32(-1)
		for v := lo; v < hi; v++ {
			c := clusterOf[v]
			if c < 0 || int(c) >= numClusters {
				bad = int32(v)
				break
			}
			atomic.StoreUint32(&s.seen[c], 1)
			if !h.IsPad(v) {
				atomic.StoreUint32(&s.nonPad[c], 1)
			}
			for i := 0; i < r; i++ {
				atomic.AddInt64(&coarse.weights[i][c], h.weights[i][v])
			}
		}
		s.badV[ci] = bad
	})
	for ci := 0; ci < P; ci++ {
		if bad := s.badV[ci]; bad >= 0 {
			return nil, nil, fmt.Errorf("hypergraph: vertex %d mapped to cluster %d outside [0,%d)", bad, clusterOf[bad], numClusters)
		}
	}
	for c := 0; c < numClusters; c++ {
		if s.seen[c] == 0 {
			return nil, nil, fmt.Errorf("hypergraph: cluster %d has no members", c)
		}
		coarse.isPad[c] = s.nonPad[c] == 0
	}
	for i := 0; i < r; i++ {
		coarse.totalWeight[i] = h.totalWeight[i]
	}

	// Phase 2: project each chunk's nets onto clusters concurrently. The
	// worker slot supplies the mark array, the chunk index addresses the
	// outputs; pins are sorted (merge mode) and hashed here so the serial
	// merge below only probes and compares.
	par.ForEachWorkerCtx(nil, P, P, func(w, ci int) {
		ws := s.shards[w]
		if ws.markRun != runID {
			ws.mark = growInts(ws.mark, numClusters)
			for i := range ws.mark {
				ws.mark[i] = -1
			}
			ws.markRun = runID
		} else {
			ws.mark = growInts(ws.mark, numClusters)
		}
		cs := s.shards[ci]
		lo, hi := chunkBounds(h.numNets, P, ci)
		cs.lens = growInts(cs.lens, hi-lo) // every entry is written below
		cs.pins = cs.pins[:0]
		cs.hashes = cs.hashes[:0]
		for e := lo; e < hi; e++ {
			ws.collapsed = ws.collapsed[:0]
			for _, v := range h.Pins(e) {
				c := clusterOf[v]
				if ws.mark[c] != int32(e) {
					ws.mark[c] = int32(e)
					ws.collapsed = append(ws.collapsed, c)
				}
			}
			cs.lens[e-lo] = int32(len(ws.collapsed))
			if len(ws.collapsed) < 2 {
				continue
			}
			if opts.MergeParallelNets {
				slices.Sort(ws.collapsed)
				cs.hashes = append(cs.hashes, hashPins(ws.collapsed))
			}
			cs.pins = append(cs.pins, ws.collapsed...)
		}
	})

	// Phase 3: serial merge in global net order — the step that fixes coarse
	// net ids, survivor choice and weight accumulation exactly as the serial
	// code does. It walks chunks in index order (= net order) and touches
	// pins only to resolve hash hits.
	netMap := make([]int32, h.numNets)
	var tableMask uint64
	if opts.MergeParallelNets {
		size := 16
		for size < 2*h.numNets {
			size <<= 1
		}
		s.table = growInts(s.table, size)
		par.ForEach(P, P, func(c int) {
			lo, hi := chunkBounds(size, P, c)
			for i := lo; i < hi; i++ {
				s.table[i] = -1
			}
		})
		tableMask = uint64(size - 1)
	}
	s.srcChunk = s.srcChunk[:0]
	s.srcOff = s.srcOff[:0]
	s.offsets = append(s.offsets[:0], 0)
	s.weights = s.weights[:0]
	for ci := 0; ci < P; ci++ {
		cs := s.shards[ci]
		lo, hi := chunkBounds(h.numNets, P, ci)
		cur, hcur := int32(0), 0
		for e := lo; e < hi; e++ {
			ln := cs.lens[e-lo]
			if ln < 2 {
				netMap[e] = -1
				continue
			}
			pins := cs.pins[cur : cur+ln]
			cur += ln
			if opts.MergeParallelNets {
				hsh := cs.hashes[hcur]
				hcur++
				slot := hsh & tableMask
				merged := false
				for {
					id := s.table[slot]
					if id < 0 {
						s.table[slot] = int32(len(s.weights))
						break
					}
					sc := s.shards[s.srcChunk[id]]
					surv := sc.pins[s.srcOff[id] : s.srcOff[id]+(s.offsets[id+1]-s.offsets[id])]
					if pinsEqual(surv, pins) {
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
			s.srcChunk = append(s.srcChunk, int32(ci))
			s.srcOff = append(s.srcOff, cur-ln)
			s.offsets = append(s.offsets, s.offsets[len(s.offsets)-1]+ln)
			s.weights = append(s.weights, h.netWeights[e])
		}
	}

	// Phase 4: copy the surviving nets into right-sized arrays owned by the
	// result, in parallel over coarse-net ranges (target positions are fixed
	// by the offsets, so chunking is free to follow the worker count).
	coarse.numNets = len(s.weights)
	coarse.netOffsets = append(make([]int32, 0, len(s.offsets)), s.offsets...)
	coarse.netWeights = append(make([]int64, 0, len(s.weights)), s.weights...)
	coarse.netPins = make([]int32, s.offsets[len(s.offsets)-1])
	par.ForEach(P, P, func(c int) {
		lo, hi := chunkBounds(coarse.numNets, P, c)
		for id := lo; id < hi; id++ {
			sc := s.shards[s.srcChunk[id]]
			ln := coarse.netOffsets[id+1] - coarse.netOffsets[id]
			copy(coarse.netPins[coarse.netOffsets[id]:], sc.pins[s.srcOff[id]:s.srcOff[id]+ln])
		}
	})

	buildVertexCSRParallel(coarse, s, P)
	return coarse, netMap, nil
}

// buildVertexCSRParallel fills vertOffsets/vertNets concurrently with output
// identical to buildVertexCSRInto: each chunk of coarse nets counts its pins
// per vertex, the counts are turned into exact global fill positions (a pin
// of vertex v in net e lands at vertOffsets[v] plus the number of v's pins in
// earlier nets — a quantity independent of the chunking), and each chunk then
// writes its pins at those positions.
func buildVertexCSRParallel(h *Hypergraph, s *contractParScratch, P int) {
	h.vertOffsets = make([]int32, h.numVerts+1)
	for ci := 0; ci < P; ci++ {
		s.shards[ci].cnt = growInts(s.shards[ci].cnt, h.numVerts)
	}
	par.ForEachWorkerCtx(nil, P, P, func(_, ci int) {
		cs := s.shards[ci]
		clear(cs.cnt[:h.numVerts])
		lo, hi := chunkBounds(h.numNets, P, ci)
		for e := lo; e < hi; e++ {
			for _, v := range h.Pins(e) {
				cs.cnt[v]++
			}
		}
	})
	// Per-vertex degree = sum of chunk counts; computed over vertex ranges.
	par.ForEach(P, P, func(c int) {
		lo, hi := chunkBounds(h.numVerts, P, c)
		for v := lo; v < hi; v++ {
			var d int32
			for ci := 0; ci < P; ci++ {
				d += s.shards[ci].cnt[v]
			}
			h.vertOffsets[v+1] = d
		}
	})
	for v := 0; v < h.numVerts; v++ {
		h.vertOffsets[v+1] += h.vertOffsets[v]
	}
	h.vertNets = make([]int32, h.vertOffsets[h.numVerts])
	// Turn the counts into each chunk's starting cursor for every vertex.
	par.ForEach(P, P, func(c int) {
		lo, hi := chunkBounds(h.numVerts, P, c)
		for v := lo; v < hi; v++ {
			run := h.vertOffsets[v]
			for ci := 0; ci < P; ci++ {
				cs := s.shards[ci]
				n := cs.cnt[v]
				cs.cnt[v] = run
				run += n
			}
		}
	})
	par.ForEachWorkerCtx(nil, P, P, func(_, ci int) {
		cs := s.shards[ci]
		lo, hi := chunkBounds(h.numNets, P, ci)
		for e := lo; e < hi; e++ {
			for _, v := range h.Pins(e) {
				h.vertNets[cs.cnt[v]] = int32(e)
				cs.cnt[v]++
			}
		}
	})
}

func growUint32s(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}
