package multilevel

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/hypergraph"
	"repro/internal/par"
	"repro/internal/partition"
)

// level is one entry of the coarsening stack.
type level struct {
	problem   *partition.Problem
	clusterOf []int32 // maps this level's vertices to the next-coarser level
}

// maxMatchRounds caps the propose/resolve iterations of matchLevel; in
// practice the loop exits on a no-progress round long before this.
const maxMatchRounds = 32

// matchState is the pooled vertex-indexed working state of one matchLevel
// call. clusterOf is NOT here: it is retained by the hierarchy, so it is
// allocated fresh.
type matchState struct {
	matchOf []int32 // partner vertex, or -1
	prop    []int32 // this round's proposal target, or -1
	winner  []int32 // lowest proposer targeting each vertex this round, or -1
	dead    []bool  // vertex can never match (candidate sets only shrink)
	base    []int32 // per-chunk counters (pairs per round, numbering prefix)
}

var matchStatePool = sync.Pool{New: func() any { return &matchState{} }}

// matchShard is one worker slot's scoring scratch: neighbour scores stamped
// by a per-shard visit counter, exactly like the serial matcher's arrays.
type matchShard struct {
	score []int64
	stamp []int32
	cand  []int32
	cur   int32
}

var matchShardPool = sync.Pool{New: func() any { return &matchShard{} }}

// pairHash is the symmetric per-round tie-break for equal-score candidate
// pairs: both endpoints of {a, b} compute the same value, so mutual
// proposals form wherever scores tie. splitmix64 over the salted,
// order-normalized pair.
func pairHash(salt uint64, a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	x := salt ^ (uint64(uint32(a))<<32 | uint64(uint32(b)))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// atomicMinInt32 lowers *addr to v (init -1 = unset). min is commutative, so
// the final value never depends on arrival order — the one concurrent write
// of the matcher stays deterministic.
func atomicMinInt32(addr *int32, v int32) {
	for {
		cur := atomic.LoadInt32(addr)
		if cur >= 0 && cur <= v {
			return
		}
		if atomic.CompareAndSwapInt32(addr, cur, v) {
			return
		}
	}
}

// matchChunk returns the half-open vertex range of chunk c of p.
func matchChunk(n, p, c int) (int, int) {
	return n * c / p, n * (c + 1) / p
}

// matchLevel performs one level of heavy-edge matching on p and returns the
// coarser problem plus the cluster map, or ok=false when the level shrank
// too little to be useful.
//
// The match score between v and u is sum over shared nets of w(e)/(|e|-1)
// (scaled to integers), the "heavy edge" metric of multilevel partitioners.
// Fixed and OR-region vertices only match when their allowed masks
// intersect; the merged cluster carries the intersection, so a cluster
// containing a terminal stays a terminal. Nets with more than
// hugeNetThreshold pins are ignored while scoring. The level is useful only
// when it shrinks the vertex count to at most clusteringRatio of p's.
//
// The matching runs as deterministic propose/resolve rounds so it
// parallelizes without a sequential vertex order (the serial greedy's
// rng.Perm scan cannot): each round, every unmatched vertex concurrently
// proposes to its best eligible neighbour — score descending, then a salted
// symmetric pair hash, then the lowest vertex id — and conflicts are
// resolved by deterministic rules only: a pair matches when the proposals
// are mutual, or when the proposer is the lowest-id proposer targeting a
// vertex whose own proposal did not succeed. Every rule is a pure function
// of the previous round's state and the per-level salt (the only randomness,
// drawn once from rng), so the clustering is bit-identical for every value
// of workers, including 1. Worker ranges only split the scan; see
// DESIGN.md "Deterministic intra-descent parallel coarsening".
func matchLevel(p *partition.Problem, maxClusterWeight int64, workers int, rng *rand.Rand) (*partition.Problem, []int32, bool) {
	h := p.H
	nv := h.NumVertices()
	W := workers
	if W < 1 {
		W = 1
	}
	P := W // chunk count; chunk boundaries never influence results
	salt := rng.Uint64()

	st := matchStatePool.Get().(*matchState)
	defer matchStatePool.Put(st)
	st.matchOf = growI32(st.matchOf, nv)
	st.prop = growI32(st.prop, nv)
	st.winner = growI32(st.winner, nv)
	st.base = growI32(st.base, P)
	if cap(st.dead) < nv {
		st.dead = make([]bool, nv)
	} else {
		st.dead = st.dead[:nv]
		clear(st.dead)
	}
	shards := make([]*matchShard, par.EffectiveWorkers(P, W))
	for i := range shards {
		sh := matchShardPool.Get().(*matchShard)
		if sh.cur > 1<<30 { // stamp counter near overflow: restart it
			clear(sh.stamp)
			sh.cur = 0
		}
		sh.score = growI64(sh.score, nv)
		sh.stamp = growI32(sh.stamp, nv)
		shards[i] = sh
	}
	defer func() {
		for _, sh := range shards {
			matchShardPool.Put(sh)
		}
	}()
	par.ForEach(P, W, func(c int) {
		lo, hi := matchChunk(nv, P, c)
		for v := lo; v < hi; v++ {
			st.matchOf[v] = -1
		}
	})

	matched := 0
	for round := 0; round < maxMatchRounds; round++ {
		rsalt := salt ^ uint64(round)*0x9e3779b97f4a7c15
		// Propose: every live vertex picks its best eligible neighbour from
		// the state frozen at the end of the previous round. Also clears the
		// vertex's winner slot for the resolve pass below.
		par.ForEachWorker(P, W, func(w, c int) {
			sh := shards[w]
			lo, hi := matchChunk(nv, P, c)
			for v := lo; v < hi; v++ {
				st.winner[v] = -1
				if st.matchOf[v] >= 0 || st.dead[v] {
					st.prop[v] = -1
					continue
				}
				sh.cur++
				cand := sh.cand[:0]
				for _, en := range h.NetsOf(v) {
					pins := h.Pins(int(en))
					if len(pins) > hugeNetThreshold {
						continue
					}
					// Score scaled by 1e6 to keep integer arithmetic.
					s := 1_000_000 * h.NetWeight(int(en)) / int64(len(pins)-1)
					for _, u := range pins {
						if int(u) == v || st.matchOf[u] >= 0 {
							continue
						}
						if sh.stamp[u] != sh.cur {
							sh.stamp[u] = sh.cur
							sh.score[u] = 0
							cand = append(cand, u)
						}
						sh.score[u] += s
					}
				}
				sh.cand = cand
				var best int32 = -1
				var bestScore int64 = -1
				var bestHash uint64
				mv := p.MaskOf(v)
				wv := h.Weight(v)
				for _, u := range cand {
					s := sh.score[u]
					if s < bestScore {
						continue
					}
					var hsh uint64
					if s == bestScore {
						hsh = pairHash(rsalt, int32(v), u)
						if hsh < bestHash || (hsh == bestHash && u > best) {
							continue
						}
					}
					if mv.Intersect(p.MaskOf(int(u))) == 0 {
						continue
					}
					if wv+h.Weight(int(u)) > maxClusterWeight {
						continue
					}
					if s > bestScore {
						hsh = pairHash(rsalt, int32(v), u)
					}
					best, bestScore, bestHash = u, s, hsh
				}
				st.prop[v] = best
				if best < 0 {
					// Candidates only disappear as matching proceeds, so a
					// vertex with no eligible partner now never gains one.
					st.dead[v] = true
				}
			}
		})
		// Resolve 1: the lowest-id proposer targeting each vertex wins it.
		par.ForEach(P, W, func(c int) {
			lo, hi := matchChunk(nv, P, c)
			for v := lo; v < hi; v++ {
				if u := st.prop[v]; u >= 0 {
					atomicMinInt32(&st.winner[u], int32(v))
				}
			}
		})
		// Resolve 2: commit pairs. A pair (v, u=prop[v]) matches when the
		// proposals are mutual (committed by the lower endpoint), or when v
		// won u and u's own proposal did not itself succeed. The predicate
		// reads only prop/winner — state frozen by the barrier above — and
		// each matchOf slot has exactly one writer, so the pass is race-free
		// and independent of chunk boundaries.
		par.ForEach(P, W, func(c int) {
			lo, hi := matchChunk(nv, P, c)
			pairs := int32(0)
			for v := lo; v < hi; v++ {
				u := st.prop[v]
				if u < 0 {
					continue
				}
				uu := int(u)
				if st.prop[uu] == int32(v) {
					if v < uu {
						st.matchOf[v] = u
						st.matchOf[uu] = int32(v)
						pairs++
					}
					continue
				}
				if st.winner[uu] != int32(v) {
					continue
				}
				// u's own proposal succeeds when it is mutual or u won its
				// target; in either case u is taken and v must stand down.
				t := st.prop[uu]
				if t >= 0 && (st.prop[t] == u || st.winner[t] == u) {
					continue
				}
				st.matchOf[v] = u
				st.matchOf[uu] = int32(v)
				pairs++
			}
			st.base[c] = pairs
		})
		delta := 0
		for c := 0; c < P; c++ {
			delta += int(st.base[c])
		}
		if delta == 0 {
			break
		}
		matched += 2 * delta
		// Once the level already shrinks enough, a trickle of extra pairs is
		// not worth another full scoring sweep.
		if delta < nv/256 && float64(nv-matched/2) <= clusteringRatio*float64(nv) {
			break
		}
	}
	if matched == 0 {
		return nil, nil, false
	}
	newCount := nv - matched/2
	if float64(newCount) > clusteringRatio*float64(nv) {
		return nil, nil, false
	}

	// Cluster numbering: identical to a serial ascending scan that assigns
	// the next id at each pair's lower endpoint — each chunk counts its
	// leaders, a serial prefix fixes the chunk bases, and the fill writes
	// both endpoints' slots (the partner's slot has exactly one writer, its
	// leader).
	clusterOf := make([]int32, nv)
	par.ForEach(P, W, func(c int) {
		lo, hi := matchChunk(nv, P, c)
		n := int32(0)
		for v := lo; v < hi; v++ {
			if m := st.matchOf[v]; m < 0 || m > int32(v) {
				n++
			}
		}
		st.base[c] = n
	})
	next := int32(0)
	for c := 0; c < P; c++ {
		n := st.base[c]
		st.base[c] = next
		next += n
	}
	par.ForEach(P, W, func(c int) {
		lo, hi := matchChunk(nv, P, c)
		id := st.base[c]
		for v := lo; v < hi; v++ {
			m := st.matchOf[v]
			if m >= 0 && m < int32(v) {
				continue // the lower endpoint numbers this pair
			}
			clusterOf[v] = id
			if m >= 0 {
				clusterOf[m] = id
			}
			id++
		}
	})
	return contractProblem(p, clusterOf, int(next))
}

// growI32 returns a length-n slice reusing s's backing array when large
// enough. Contents are unspecified.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// contractProblem builds the coarse problem from a cluster map, carrying
// intersected masks.
func contractProblem(p *partition.Problem, clusterOf []int32, numClusters int) (*partition.Problem, []int32, bool) {
	coarseH, err := hypergraph.Contract(p.H, clusterOf, numClusters)
	if err != nil {
		// Contract only fails on malformed inputs, which the matcher never
		// produces; treat as "cannot coarsen further".
		return nil, nil, false
	}
	coarse := &partition.Problem{H: coarseH, K: p.K, Balance: p.Balance}
	if p.Allowed != nil {
		masks := make([]partition.Mask, numClusters)
		all := partition.AllParts(p.K)
		for i := range masks {
			masks[i] = all
		}
		for v := 0; v < p.H.NumVertices(); v++ {
			masks[clusterOf[v]] = masks[clusterOf[v]].Intersect(p.MaskOf(v))
		}
		coarse.Allowed = masks
	}
	return coarse, clusterOf, true
}
