package fm

import (
	"sync"

	"repro/internal/par"
)

// roundState is the pooled per-run state the two parallel refinement stages
// share — the synchronous-round stage (parallel.go) and the localized stage
// (localized.go). Both price moves from one round-start gain table, stamp
// the nets each commit phase touched (the conflict groups), and refresh
// after each commit phase exactly the rows those nets invalidated. The
// remaining fields belong to one stage each and are sized by it.
type roundState struct {
	// gain is the round-start gain table: gain[v*k+t] is the (λ-1) gain of
	// moving movable vertex v from its part to part t against the
	// round-start Φ. Entries for v's own part and for parts outside its mask
	// are never read.
	gain     []int64
	netRound []int32 // round a net's Φ row last changed, -1 = never
	rowRound []int32 // round a vertex's gain row was last queued for refresh, -1 = never
	stale    []int32 // vertices whose gain rows this round's commits invalidated
	chunks   [][]int32
	order    []int32

	// Round stage: each vertex's stored proposal and its per-round salted
	// commit-order tie-break.
	propT []int8  // proposed target per vertex, -1 = none
	propG []int64 // proposed gain per vertex (> 0 when propT >= 0)
	hash  []uint64

	// Localized stage: boundary stamps, the seed queue, per-search results,
	// per-vertex commit stamps, and the round-start balance slack per (part,
	// resource) at q*nr+r — the weight part q may still lose before its
	// minimum (slackLo) and gain before its maximum (slackHi).
	bnd              []int32 // round stamp: vertex is a boundary seed this round
	seeds            []int32
	results          []locPrefix
	vRound           []int32 // round a vertex was last committed, -1 = never
	slackLo, slackHi []int64
}

var roundStatePool = sync.Pool{New: func() any { return &roundState{} }}

// prepare sizes and clears the shared state for a run on m with the given
// chunk count, and fills the gain table's row of every movable vertex over
// vertex chunks.
func (st *roundState) prepare(m *cutModel, P, W int) {
	nv := m.h.NumVertices()
	k := m.k
	st.netRound = fillInt32(st.netRound, m.h.NumNets(), -1)
	st.rowRound = fillInt32(st.rowRound, nv, -1)
	st.stale = st.stale[:0]
	st.gain = growInt64(st.gain, nv*k)
	if cap(st.chunks) < P {
		st.chunks = make([][]int32, P)
	}
	st.chunks = st.chunks[:P]
	par.ForEachWorker(P, W, func(_, c int) {
		lo, hi := refineChunk(nv, P, c)
		for v := lo; v < hi; v++ {
			if m.movable[v] {
				m.gainRow(int32(v), st.gain[v*k:v*k+k])
			}
		}
	})
}

// conflicts reports whether a commit of this round already changed Φ on one
// of v's gain-relevant nets. Skipping such a move keeps every committed gain
// exact against the round-start table (first winner takes the conflict
// group).
func (st *roundState) conflicts(m *cutModel, v int32, round int32) bool {
	for _, en := range m.h.NetsOf(int(v)) {
		if st.netRound[en] == round && int(m.fixedCover[en]) != m.k {
			return true
		}
	}
	return false
}

// markStale records a committed move of v: it stamps v's gain-relevant nets
// into this round's conflict groups and queues the gain rows of their
// movable pins for refresh. Those pins are exactly the vertices whose rows
// the move invalidated; that includes v itself unless none of its nets is
// gain-relevant, and then its row is zero before and after the move. Nets
// whose immovable pins cover every part never contribute to any gain (see
// cutModel.gainRow), so their Φ shift neither conflicts nor stales.
func (st *roundState) markStale(m *cutModel, v int32, round int32) {
	for _, en := range m.h.NetsOf(int(v)) {
		if int(m.fixedCover[en]) == m.k || st.netRound[en] == round {
			continue
		}
		st.netRound[en] = round
		for _, u := range m.h.Pins(int(en)) {
			if m.movable[u] && st.rowRound[u] != round {
				st.rowRound[u] = round
				st.stale = append(st.stale, u)
			}
		}
	}
}

// refreshRows recomputes every queued gain row against the live Φ, over
// chunks of the stale list (rows are distinct, so chunks never share a
// write), and empties the list.
func (st *roundState) refreshRows(m *cutModel, P, W int) {
	k := m.k
	if len(st.stale) < 256 {
		P = 1
	}
	par.ForEachWorker(P, W, func(_, c int) {
		lo, hi := refineChunk(len(st.stale), P, c)
		for _, v := range st.stale[lo:hi] {
			m.gainRow(v, st.gain[int(v)*k:int(v)*k+k])
		}
	})
	st.stale = st.stale[:0]
}

// refineHash is the per-round salted tie-break between equal-gain
// candidates: splitmix64 over the salted id. Like the matcher's pairHash it
// makes the commit order independent of chunk boundaries and vertex
// numbering artifacts while staying a pure function of (salt, round, id).
func refineHash(salt uint64, v int32) uint64 {
	x := salt ^ uint64(uint32(v))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// refineChunk returns the half-open range of chunk c when n items are split
// into p chunks.
func refineChunk(n, p, c int) (int, int) {
	return n * c / p, n * (c + 1) / p
}
