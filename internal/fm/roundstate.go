package fm

import "repro/internal/par"

// roundState is the per-level state the two parallel refinement stages
// share — the synchronous-round stage (parallel.go) and the localized stage
// (localized.go). Both price moves from one gain table, stamp the nets each
// commit phase touched (the conflict groups), and refresh after each commit
// phase exactly the rows those nets invalidated. It lives in the Scratch,
// and its table is the Level's: one stage hands it to the next while it is
// exact. The remaining fields belong to one stage each and are sized by it.
type roundState struct {
	// gain is the gain table: gain[v*k+t] is the (λ-1) gain of moving
	// movable vertex v from its part to part t against the round-start Φ.
	// Entries for v's own part and for parts outside its mask are never
	// read. The kernel prices its passes into the same rows.
	gain     []int64
	netRound []int32 // round a net's Φ row last changed, -1 = never
	rowRound []int32 // round a vertex's gain row was last queued for refresh, -1 = never
	stale    []int32 // vertices whose gain rows this round's commits invalidated
	touched  []int32 // gain-relevant nets this round's commits changed
	chunks   [][]int32
	order    []int32

	// Round stage: each vertex's stored proposal and its per-round salted
	// commit-order tie-break.
	propT []int8  // proposed target per vertex, -1 = none
	propG []int64 // proposed gain per vertex (> 0 when propT >= 0)
	hash  []uint64

	// Localized stage: the boundary, per-search results, per-vertex commit
	// stamps, and the round-start balance slack per (part, resource) at
	// q*nr+r — the weight part q may still lose before its minimum (slackLo)
	// and gain before its maximum (slackHi). The boundary is kept
	// incrementally: cutNet flags the gain-relevant nets spanning more than
	// one part, bcount counts each movable vertex's flagged nets, and seeds
	// lists the vertices with bcount > 0 ascending (seeded marks them).
	cutNet  []bool
	bcount  []int32
	seeded  []bool
	seeds   []int32
	seedBuf []int32 // the next seed list, double-buffered with seeds
	flips   []int32 // vertices whose bcount changed this commit phase
	results []locPrefix
	vRound  []int32 // round a vertex was last committed, -1 = never
	slackLo []int64
	slackHi []int64
}

// begin clears the round stamps and the stale and touched lists for a stage
// run on m with P chunks.
func (st *roundState) begin(m *cutModel, P int) {
	st.netRound = fillInt32(st.netRound, m.h.NumNets(), -1)
	st.rowRound = fillInt32(st.rowRound, m.h.NumVertices(), -1)
	st.stale = st.stale[:0]
	st.touched = st.touched[:0]
	if cap(st.chunks) < P {
		st.chunks = make([][]int32, P)
	}
	st.chunks = st.chunks[:P]
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
// gain-relevant — and such a vertex never moves in either stage: its row is
// all zero (no positive proposal) and no search reaches it, so the table
// stays exact for every target of every movable vertex. Nets
// whose immovable pins cover every part never contribute to any gain (see
// cutModel.gainRow), so their Φ shift neither conflicts nor stales.
func (st *roundState) markStale(m *cutModel, v int32, round int32) {
	for _, en := range m.h.NetsOf(int(v)) {
		if int(m.fixedCover[en]) == m.k || st.netRound[en] == round {
			continue
		}
		st.netRound[en] = round
		st.touched = append(st.touched, en)
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
// write), and empties the stale and touched lists.
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
	st.touched = st.touched[:0]
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
