package fm

// This file freezes the synchronous-round parallel refinement engine as it
// stood before it shared the localized engine's round state: every stale
// vertex re-prices its proposal by scanning its nets (refProposeMove), and
// the pins of every touched net are dirty-marked after each commit phase.
// TestParallelRefineMatchesReference and FuzzFMKernel run the production
// engine against it and require identical assignments and counters.
// Test-only: it is not part of the production build.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/partition"
)

// refParScratch holds the pooled working state specific to the frozen round
// engine; the structural model state (Φ, weights, movability) lives in the
// regular fm.Scratch the caller provides, which the serial polish that
// follows re-initializes anyway.
type refParScratch struct {
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

var refParScratchPool = sync.Pool{New: func() any { return &refParScratch{} }}

// parallelRefineReference is the round engine as it stood before it shared the
// localized engine's round-start gain table. It runs on a fresh Scratch.
func parallelRefineReference(p *partition.Problem, initial partition.Assignment, cfg Config, workers int, salt uint64) (*ParallelResult, partition.Assignment, error) {
	sc := &Scratch{}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if err := p.Feasible(initial); err != nil {
		return nil, nil, fmt.Errorf("fm: initial assignment: %w", err)
	}
	m := &cutModel{}
	m.init(p, initial, sc)
	res := &ParallelResult{Movable: m.nMovable}
	if m.nMovable == 0 {
		return res, m.a.Clone(), nil
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

	ps := refParScratchPool.Get().(*refParScratch)
	defer refParScratchPool.Put(ps)
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
					refProposeMove(m, int32(v), miss, ps)
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
			if !m.feasibleMove(v, t) {
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
			m.moveVertex(v, from, t)
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

	return res, m.a.Clone(), nil // a is scratch-backed; the result must not alias it
}

// refProposeMove recomputes v's best feasible positive-gain move against the
// current Φ snapshot and stores it in ps (propT = -1 when none exists). One
// scan over v's nets prices every target at once: the gain of moving v from
// its part to t is
//
//	Σ w(e)·[Φ(e, from) == 1]  −  Σ w(e)·[Φ(e, t) == 0]
//
// (leaving a part v covered alone gains the net, entering a part the net
// does not touch loses it — cutModel.moveGain term by term). miss is the
// caller's per-worker length-k accumulator for the second sum.
func refProposeMove(m *cutModel, v int32, miss []int64, ps *refParScratch) {
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
