package fm

import (
	"sort"

	"repro/internal/par"
)

// This file implements the deterministic synchronous-round parallel
// refinement engine behind multilevel.Config.RefineWorkers: the same
// propose/resolve shape the coarsening matcher uses, applied to k-way
// vertex moves. Each round
//
//  1. workers scan disjoint vertex chunks in parallel and *propose* the best
//     feasible positive-gain move per vertex from its row of the round-start
//     gain table (roundstate.go; only vertices whose rows the previous
//     commit phase refreshed re-propose; clean proposals are reused),
//  2. the proposals are *applied* serially in a deterministic order — gain
//     descending, then a salted splitmix64 hash of the vertex id, then the id
//     itself — under two commit rules: a proposal is skipped when any of its
//     vertex's (gain-relevant) nets was already touched this round (first
//     winner takes the conflict group, which keeps every committed gain exact
//     against the round snapshot), and re-checked against the running part
//     weights so the committed prefix stays balance-feasible,
//  3. the gain rows of the movable pins of every touched net — exactly the
//     vertices whose stored gains the commits invalidated — are recomputed
//     in parallel.
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

// ParallelResult is the outcome of a Level.Rounds run.
type ParallelResult struct {
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

// Rounds runs the synchronous-round stage on the level (see the file comment
// for round semantics) and returns its counters; the level holds the
// result. workers < 1 runs the rounds serially; the result
// is bit-identical for every worker count. salt seeds the per-round
// commit-order tie-break and is the stage's only randomness — callers draw
// it once from their RNG so the stream stays worker-count-agnostic. The
// gain table is built unless the level already holds it exact, and is
// exact again when the stage returns.
func (l *Level) Rounds(workers int, salt uint64) ParallelResult {
	m := &l.m
	res := ParallelResult{Movable: m.nMovable}
	if m.nMovable == 0 {
		return res
	}

	W := max(workers, 1)
	P := W // chunk count; chunk boundaries never influence results
	k := m.k
	nv := m.h.NumVertices()

	st := &l.sc.round
	st.begin(m, P)
	l.buildTable(P, W)
	st.propT = growInt8(st.propT, nv)
	st.propG = growInt64(st.propG, nv)
	st.hash = growUint64(st.hash, nv)
	if cap(st.order) < nv {
		st.order = make([]int32, 0, nv)
	}
	for round := 0; ; round++ {
		res.Rounds = round + 1
		rs := salt + uint64(round)*0x9e3779b97f4a7c15

		// Propose: each worker re-proposes the vertices of its chunk whose
		// rows were refreshed after the previous commit phase (every movable
		// vertex in round 0), then collects every live proposal in the chunk
		// as a commit candidate. Clean proposals stay exact — none of their
		// gain-relevant nets changed — and only their balance feasibility is
		// re-judged at commit.
		par.ForEachWorker(P, W, func(_, c int) {
			lo, hi := refineChunk(nv, P, c)
			cand := st.chunks[c][:0]
			for v := lo; v < hi; v++ {
				if !m.movable[v] {
					continue
				}
				if round == 0 || st.rowRound[v] == int32(round-1) {
					st.propose(m, int32(v))
				}
				if st.propT[v] >= 0 {
					st.hash[v] = refineHash(rs, int32(v))
					cand = append(cand, int32(v))
				}
			}
			st.chunks[c] = cand
		})

		// Merge the per-chunk candidate lists (chunks are contiguous and
		// internally ascending, so the merged order is ascending by vertex id
		// whatever P is) and sort into the deterministic commit order.
		order := st.order[:0]
		for c := 0; c < P; c++ {
			order = append(order, st.chunks[c]...)
		}
		st.order = order
		if len(order) == 0 {
			break
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if st.propG[a] != st.propG[b] {
				return st.propG[a] > st.propG[b]
			}
			if st.hash[a] != st.hash[b] {
				return st.hash[a] < st.hash[b]
			}
			return a < b
		})

		// Commit serially. The first-winner rule keeps each committed gain
		// exact against the round-start table; the running feasibleMove
		// re-check keeps the committed prefix balanced.
		commits := 0
		for _, v := range order {
			t := int(st.propT[v])
			if st.conflicts(m, v, int32(round)) {
				// The loser's row is staled by the winner's commit, so it
				// re-proposes next round.
				continue
			}
			if !m.feasibleMove(v, t) {
				// Stays a stored proposal: balance may free up next round.
				continue
			}
			from := int(m.a[v])
			for _, en := range m.h.NetsOf(int(v)) {
				base := int(en) * k
				m.pinCount[base+from]--
				m.pinCount[base+t]++
			}
			m.moveVertex(v, from, t)
			st.markStale(m, v, int32(round))
			res.Gain += st.propG[v]
			st.propT[v] = -1
			commits++
		}
		res.Moves += commits
		if commits == 0 {
			// No state changed; the next round would replay this one forever.
			break
		}
		st.refreshRows(m, P, W)
	}

	l.km1 -= res.Gain
	return res
}

// propose stores v's best feasible strictly positive move, read from its
// gain row (propT = -1 when none exists). Ties keep the lowest target part.
func (st *roundState) propose(m *cutModel, v int32) {
	row := st.gain[int(v)*m.k : int(v)*m.k+m.k]
	from := m.a[v]
	bestT := int8(-1)
	var bestG int64
	for _, t := range m.targets(v) {
		if t == from {
			continue
		}
		if g := row[t]; g > bestG && m.feasibleMove(v, int(t)) {
			bestT, bestG = t, g
		}
	}
	st.propT[v] = bestT
	st.propG[v] = bestG
}
