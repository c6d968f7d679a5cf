package fm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/partition"
)

// This file implements the deterministic synchronous-round parallel
// refinement engine behind multilevel.Config.RefineWorkers: the same
// propose/resolve shape the coarsening matcher uses, applied to k-way
// vertex moves. Each round
//
//  1. workers scan disjoint vertex chunks in parallel and *propose* the best
//     feasible positive-gain move per vertex against a read-only snapshot of
//     the per-(net, part) pin counts Φ (only vertices whose gains a previous
//     round invalidated are recomputed; clean proposals are reused),
//  2. the proposals are *applied* serially in a deterministic order — gain
//     descending, then a salted splitmix64 hash of the vertex id, then the id
//     itself — under two commit rules: a proposal is skipped when any of its
//     vertex's (gain-relevant) nets was already touched this round (first
//     winner takes the conflict group, which keeps every committed gain exact
//     against the round snapshot), and re-checked against the running part
//     weights so the committed prefix stays balance-feasible,
//  3. the pins of all touched nets are marked stale in parallel, which is
//     exactly the set of vertices whose stored gains the commits invalidated.
//
// Rounds repeat until a round produces no proposals or commits no move.
// Every rule is a pure function of the previous round's state and the salt,
// and chunk boundaries only decide which worker computes what, so the result
// is bit-identical for every worker count, including 1. Termination: each
// committed move applies its exact, strictly positive (λ-1) gain, so the
// connectivity strictly decreases and is bounded below by zero.
//
// The engine is a hill climber (no uphill moves, no rollback); the serial FM
// kernel and the localized engine (localized.go) recover gains requiring
// negative prefixes.

// ParallelResult is the outcome of a ParallelRefine run.
type ParallelResult struct {
	// Assignment is the refined solution (feasible by construction; never
	// aliases scratch memory).
	Assignment partition.Assignment
	// Rounds is the number of synchronous propose/commit rounds executed,
	// including the final round that produced no commits.
	Rounds int
	// Moves is the total number of committed moves.
	Moves int
	// Gain is the total (λ-1) connectivity reduction achieved (>= 0). At
	// k = 2 this equals the cut reduction.
	Gain int64
	// Movable is the number of vertices with at least two allowed parts.
	Movable int
}

// parScratch holds the pooled working state specific to the parallel round
// engine; the structural model state (Φ, weights, movability) lives in the
// regular fm.Scratch the caller provides, which the serial polish that
// follows re-initializes anyway.
type parScratch struct {
	propT    []int8   // proposed target per vertex, -1 = none
	propG    []int64  // proposed gain per vertex (> 0 when propT >= 0)
	hash     []uint64 // per-vertex salted tie-break hash, rebuilt per round
	dirty    []int32  // 1 = proposal must be recomputed (atomically marked)
	netRound []int32  // round a net's Φ row last changed, -1 = never
	touched  []int32  // nets committed into during the current round
	cand     [][]int32
	order    []int32
	miss     [][]int64 // per-worker target-miss accumulators, each len k
}

var parScratchPool = sync.Pool{New: func() any { return &parScratch{} }}

// refineHash is the per-round salted tie-break between equal-gain proposals:
// splitmix64 over the salted vertex id. Like the matcher's pairHash it makes
// the commit order independent of chunk boundaries and vertex numbering
// artifacts while staying a pure function of (salt, round, v).
func refineHash(salt uint64, v int32) uint64 {
	x := salt ^ uint64(uint32(v))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// refineChunk returns the half-open vertex range of chunk c of p.
func refineChunk(n, p, c int) (int, int) {
	return n * c / p, n * (c + 1) / p
}

// ParallelRefine improves a feasible k-way assignment with deterministic
// synchronous-round parallel refinement (see the file comment for round
// semantics). The initial assignment is not modified. workers < 1 runs the
// rounds serially; the result is bit-identical for every worker count. salt
// seeds the per-round commit-order tie-break and is the engine's only
// randomness — callers draw it once from their RNG so the stream stays
// worker-count-agnostic. Working state comes from an internal sync.Pool; use
// ParallelRefineWith to manage the Scratch explicitly.
func ParallelRefine(p *partition.Problem, initial partition.Assignment, cfg Config, workers int, salt uint64) (*ParallelResult, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return ParallelRefineWith(p, initial, cfg, workers, salt, sc)
}

// ParallelRefineWith is ParallelRefine running on a caller-provided Scratch,
// for drivers that pin one scratch per worker across a whole descent. The
// result never aliases scratch memory.
func ParallelRefineWith(p *partition.Problem, initial partition.Assignment, cfg Config, workers int, salt uint64, sc *Scratch) (*ParallelResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Feasible(initial); err != nil {
		return nil, fmt.Errorf("fm: initial assignment: %w", err)
	}
	model := newGainModel(cfg.Objective)
	model.init(p, initial, sc)
	m := model.core()
	res := &ParallelResult{Movable: m.nMovable}
	if m.nMovable == 0 {
		res.Assignment = m.a.Clone()
		return res, nil
	}

	W := workers
	if W < 1 {
		W = 1
	}
	P := W // chunk count; chunk boundaries never influence results
	h := m.h
	k := m.k
	nv := h.NumVertices()
	ne := h.NumNets()

	ps := parScratchPool.Get().(*parScratch)
	defer parScratchPool.Put(ps)
	ps.propT = growInt8(ps.propT, nv)
	ps.propG = growInt64(ps.propG, nv)
	ps.hash = growUint64(ps.hash, nv)
	ps.dirty = growInt32(ps.dirty, nv)
	ps.netRound = growInt32(ps.netRound, ne)
	for i := range ps.netRound {
		ps.netRound[i] = -1
	}
	if cap(ps.touched) < 64 {
		ps.touched = make([]int32, 0, 1024)
	}
	if cap(ps.cand) < P {
		ps.cand = make([][]int32, P)
	}
	ps.cand = ps.cand[:P]
	if cap(ps.order) < nv {
		ps.order = make([]int32, 0, nv)
	}
	slots := par.EffectiveWorkers(P, W)
	if cap(ps.miss) < slots {
		ps.miss = make([][]int64, slots)
	}
	ps.miss = ps.miss[:slots]
	for i := range ps.miss {
		ps.miss[i] = growInt64(ps.miss[i], k)
	}
	for v := range ps.propT {
		ps.propT[v] = -1
		ps.dirty[v] = 1 // round 0 computes every movable vertex's proposal
	}

	for round := 0; ; round++ {
		res.Rounds = round + 1
		rs := salt + uint64(round)*0x9e3779b97f4a7c15

		// Propose: each worker recomputes the proposals its chunk's stale
		// vertices against the current (round-stable) Φ snapshot, then
		// collects every live proposal in the chunk as a commit candidate.
		// Clean proposals stay exact — none of their gain-relevant nets
		// changed — and only their balance feasibility is re-judged at commit.
		par.ForEachWorker(P, W, func(w, c int) {
			miss := ps.miss[w]
			lo, hi := refineChunk(nv, P, c)
			cand := ps.cand[c][:0]
			for v := lo; v < hi; v++ {
				if !m.movable[v] {
					continue
				}
				if ps.dirty[v] != 0 {
					ps.dirty[v] = 0
					proposeMove(m, int32(v), miss, ps)
				}
				if ps.propT[v] >= 0 {
					ps.hash[v] = refineHash(rs, int32(v))
					cand = append(cand, int32(v))
				}
			}
			ps.cand[c] = cand
		})

		// Merge the per-chunk candidate lists (chunks are contiguous and
		// internally ascending, so the merged order is ascending by vertex id
		// whatever P is) and sort into the deterministic commit order.
		order := ps.order[:0]
		for c := 0; c < P; c++ {
			order = append(order, ps.cand[c]...)
		}
		ps.order = order
		if len(order) == 0 {
			break
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if ps.propG[a] != ps.propG[b] {
				return ps.propG[a] > ps.propG[b]
			}
			if ps.hash[a] != ps.hash[b] {
				return ps.hash[a] < ps.hash[b]
			}
			return a < b
		})

		// Commit serially. The first-winner rule (skip a proposal when any of
		// its gain-relevant nets was already committed into this round) keeps
		// each committed gain exact against the round snapshot; the running
		// feasibleMove re-check keeps the committed prefix balanced.
		ps.touched = ps.touched[:0]
		commits := 0
		for _, v := range order {
			t := int(ps.propT[v])
			from := int(m.a[v])
			conflict := false
			for _, en := range h.NetsOf(int(v)) {
				if ps.netRound[en] == int32(round) && int(m.fixedCover[en]) != k {
					conflict = true
					break
				}
			}
			if conflict {
				// The loser's pins are dirty-marked by the winner's touch, so
				// its proposal is recomputed next round.
				continue
			}
			if !model.feasibleMove(v, t) {
				// Stays a stored proposal: balance may free up next round.
				continue
			}
			for _, en := range h.NetsOf(int(v)) {
				base := int(en) * k
				m.pinCount[base+from]--
				m.pinCount[base+t]++
				// Nets whose immovable pins cover every part never contribute
				// to any gain (see cutModel.moveGain), so their Φ shift
				// invalidates nothing and they neither conflict nor dirty.
				if ps.netRound[en] != int32(round) && int(m.fixedCover[en]) != k {
					ps.netRound[en] = int32(round)
					ps.touched = append(ps.touched, en)
				}
			}
			model.moveVertex(v, from, t)
			res.Gain += ps.propG[v]
			ps.propT[v] = -1
			commits++
		}
		res.Moves += commits
		if commits == 0 {
			// No state changed; the next round would replay this one forever.
			break
		}

		// Mark the pins of every touched net stale, in parallel (atomically:
		// nets share pins across chunks of the touched list). This is exactly
		// the set of vertices whose stored gains the commits invalidated.
		if len(ps.touched) < 256 || W == 1 {
			for _, en := range ps.touched {
				for _, u := range h.Pins(int(en)) {
					if m.movable[u] {
						ps.dirty[u] = 1
					}
				}
			}
		} else {
			par.ForEach(P, W, func(c int) {
				lo, hi := refineChunk(len(ps.touched), P, c)
				for _, en := range ps.touched[lo:hi] {
					for _, u := range h.Pins(int(en)) {
						if m.movable[u] {
							atomic.StoreInt32(&ps.dirty[u], 1)
						}
					}
				}
			})
		}
	}

	res.Assignment = m.a.Clone() // a is scratch-backed; the result must not alias it
	return res, nil
}

// proposeMove recomputes v's best feasible positive-gain move against the
// current Φ snapshot and stores it in ps (propT = -1 when none exists). One
// scan over v's nets prices every target at once: the gain of moving v from
// its part to t is
//
//	Σ w(e)·[Φ(e, from) == 1]  −  Σ w(e)·[Φ(e, t) == 0]
//
// (leaving a part v covered alone gains the net, entering a part the net
// does not touch loses it — cutModel.moveGain term by term). miss is the
// caller's per-worker length-k accumulator for the second sum.
func proposeMove(m *cutModel, v int32, miss []int64, ps *parScratch) {
	h := m.h
	k := m.k
	from := int(m.a[v])
	tgts := m.targets(v)
	for _, t := range tgts {
		miss[t] = 0
	}
	var base int64
	for _, en := range h.NetsOf(int(v)) {
		if int(m.fixedCover[en]) == k {
			continue
		}
		nb := int(en) * k
		w := h.NetWeight(int(en))
		if m.pinCount[nb+from] == 1 {
			base += w
		}
		for _, t := range tgts {
			if m.pinCount[nb+int(t)] == 0 {
				miss[t] += w
			}
		}
	}
	bestT := int8(-1)
	var bestG int64
	for _, t := range tgts {
		if int(t) == from {
			continue
		}
		if g := base - miss[t]; g > bestG && m.feasibleMove(v, int(t)) {
			bestT, bestG = t, g
		}
	}
	ps.propT[v] = bestT
	ps.propG[v] = bestG
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
