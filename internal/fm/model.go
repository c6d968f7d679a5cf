package fm

import (
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// cutModel is the FM engine's one model of a partition in progress: per-net
// pin counts Φ(e, part), per-part multi-resource weights, movability derived
// from partition.Mask, and the connectivity-aware move gain g(v, target) —
// the (λ-1) delta of moving v to the target part, which for k = 2 is
// exactly the classic FM cut gain. gainRow is the one from-scratch pricer;
// the kernel, the round stage and the localized stage all read their gains
// from it or keep them incrementally from its rows. The model owns the state
// and its structural invariants (apply/undo keep Φ and the weights
// consistent with the assignment); move ordering lives in the policy layer
// (kernel). One model lives in each Level and every refinement stage of the
// level updates it in place.
//
// All bulk arrays are Scratch-backed so repeated runs reuse them.
type cutModel struct {
	p *partition.Problem
	h *hypergraph.Hypergraph
	k int

	a        partition.Assignment
	pinCount []int32 // Φ(e, q) at index e*k+q
	// passNet packs each net's per-pass lock state into one record of
	// nsStride = k+2 int32 slots (for k = 2: 16 bytes, one cache line shared
	// by four nets), so the kernel's per-(move, net) lock bookkeeping — the
	// skip checks that decide whether to scan the pin list at all, plus the
	// locked-pin counting — reads one line instead of gathering from three
	// parallel arrays. Φ deliberately stays in its own dense e*k+q array:
	// the gain-seeding gather in initPass touches only Φ, and folding it
	// into the record would quarter that scan's cache density. Net e's
	// record starts at e*nsStride:
	//
	//	[0, k)  locked pins per part, this pass
	//	k       still-unlocked movable pins, this pass
	//	k+1     parts with >= 1 locked pin, this pass
	passNet  []int32
	nsStride int
	weight   [][]int64 // [part][resource]
	movable  []bool    // at least two allowed parts
	locked   []bool    // moved in the current pass
	nMovable int
	// incW is each vertex's total incident net weight; the kernel sizes its
	// bucket key span from the movable vertices' largest.
	incW []int64

	// tgtOff/tgtList is a flat CSR of each vertex's allowed target parts
	// (mask ∩ live parts, ascending), built by setMovable so the hot path
	// never consults partition.Mask. Immovable vertices get an empty row.
	tgtOff  []int32
	tgtList []int8
	// fixedLocked counts immovable pins per (net, part); fixedCover counts
	// parts with at least one immovable pin per net. They seed the per-pass
	// locked-pin counters: a fixed terminal behaves like a vertex locked
	// before the pass's first move. movablePins counts each net's movable
	// pins; it seeds the kernel's per-pass unlocked-pin counters.
	fixedLocked []int32
	fixedCover  []int32
	movablePins []int32
}

// init sizes the model's arrays out of sc, loads the initial assignment —
// pin counts, part weights, incident weights — and derives movability over
// all k parts (setMovable). It returns the assignment's (λ-1) connectivity,
// read off Φ as it is built.
func (m *cutModel) init(p *partition.Problem, initial partition.Assignment, sc *Scratch) int64 {
	h := p.H
	k := p.K
	nv := h.NumVertices()
	ne := h.NumNets()
	nr := h.NumResources()
	sc.prepare(nv, ne, nr, k)
	m.p, m.h, m.k = p, h, k
	// The working assignment is scratch-backed (no per-run allocation); the
	// stages clone it into their results on the way out.
	m.a = sc.assign
	copy(m.a, initial)
	m.pinCount = sc.pinCount
	m.passNet = sc.passNet
	m.nsStride = k + 2
	m.weight = sc.weight
	m.movable = sc.movable
	m.locked = sc.locked
	m.incW = sc.incW
	m.tgtOff = sc.tgtOff
	m.tgtList = sc.tgtList[:0]
	m.fixedLocked = sc.fixedLocked
	m.fixedCover = sc.fixedCover
	m.movablePins = sc.movablePins
	for v := 0; v < nv; v++ {
		for r := 0; r < nr; r++ {
			m.weight[m.a[v]][r] += h.WeightIn(v, r)
		}
		m.incW[v] = 0
	}
	var km1 int64
	for en := 0; en < ne; en++ {
		base := en * k
		w := h.NetWeight(en)
		for _, v := range h.Pins(en) {
			m.pinCount[base+int(m.a[v])]++
			m.incW[v] += w
		}
		lambda := int64(0)
		for _, c := range m.pinCount[base : base+k] {
			if c > 0 {
				lambda++
			}
		}
		if lambda > 1 {
			km1 += w * (lambda - 1)
		}
	}
	m.setMovable(partition.AllParts(k))
	sc.tgtList = m.tgtList // keep any growth for the next run
	return km1
}

// setMovable derives movability and the lock seeds for moves restricted to
// the parts in allow: a vertex is movable when it sits in allow and its mask
// keeps at least two parts of allow, and its target row lists those parts
// ascending. allow = every live part gives the level's own movability; a part
// pair gives the pairwise sweeps' (a vertex outside the pair, or allowed only
// one part of it, is a fixed terminal for the pair). The lock seeds come off
// the live Φ: only nets large enough for the kernel to track
// (lockTrackMinPins) get per-part seeding, and there fixedLocked is Φ minus
// the movable pins — the immovable pins never move, so a part they cover
// holds at least one "locked" pin from the first move of every pass. Every
// per-pass lock flag is cleared.
func (m *cutModel) setMovable(allow partition.Mask) {
	h := m.h
	k := m.k
	nv := h.NumVertices()
	ne := h.NumNets()
	// Start every tracked net from its full Φ row and span; the movable pins
	// are taken out below, and a part whose count drops to zero leaves the
	// cover.
	for en := 0; en < ne; en++ {
		base := en * k
		m.movablePins[en] = 0
		cover := int32(0)
		if h.NetSize(en) >= lockTrackMinPins {
			for q, c := range m.pinCount[base : base+k] {
				m.fixedLocked[base+q] = c
				if c > 0 {
					cover++
				}
			}
		} else {
			clear(m.fixedLocked[base : base+k])
		}
		m.fixedCover[en] = cover
	}
	m.nMovable = 0
	tgtList := m.tgtList[:0]
	for v := 0; v < nv; v++ {
		m.locked[v] = false
		m.tgtOff[v] = int32(len(tgtList))
		q := int(m.a[v])
		var live partition.Mask
		if allow.Contains(q) {
			live = m.p.MaskOf(v).Intersect(allow)
		}
		m.movable[v] = live.Count() >= 2
		if !m.movable[v] {
			continue
		}
		m.nMovable++
		for t := 0; t < k; t++ {
			if live.Contains(t) {
				tgtList = append(tgtList, int8(t))
			}
		}
		for _, en := range h.NetsOf(v) {
			m.movablePins[en]++
			if h.NetSize(int(en)) >= lockTrackMinPins {
				i := int(en)*k + q
				if m.fixedLocked[i]--; m.fixedLocked[i] == 0 {
					m.fixedCover[en]--
				}
			}
		}
	}
	m.tgtOff[nv] = int32(len(tgtList))
	m.tgtList = tgtList
}

// targets returns v's allowed target parts (ascending, excluding nothing —
// the caller skips the current part, or relies on bucket membership to).
func (m *cutModel) targets(v int32) []int8 {
	return m.tgtList[m.tgtOff[v]:m.tgtOff[v+1]]
}

// gainRow writes into row[t], for each of v's targets t, the (λ-1) gain of
// moving v from its current part to t against the live Φ, in one scan of v's
// nets:
//
//	Σ w(e)·[Φ(e, from) == 1]  −  Σ w(e)·[Φ(e, t) == 0]
//
// v leaving a net's last pin in its part removes that part from the net's
// span (+w); v arriving in a part the net does not yet touch adds one (-w).
// For k = 2 this is the textbook FS-TE cut gain. row must have length k;
// entries for v's own part and for parts outside its mask are left alone.
func (m *cutModel) gainRow(v int32, row []int64) {
	h := m.h
	k := m.k
	from := int(m.a[v])
	var buf [partition.MaxParts]int8
	tgts := buf[:0]
	for _, t := range m.targets(v) {
		if int(t) != from {
			tgts = append(tgts, t)
			row[t] = 0
		}
	}
	var base int64
	for _, en := range h.NetsOf(int(v)) {
		// Immovable pins covering every part pin the net's contribution to
		// zero: Φ(from) >= 2 (v plus a fixed pin) and Φ(t) >= 1, whatever the
		// movable pins do. (fixedCover is only maintained for nets of >=
		// lockTrackMinPins pins; for smaller nets it stays 0 and the check
		// just never fires.)
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
				row[t] -= w
			}
		}
	}
	for _, t := range tgts {
		row[t] += base
	}
}

// feasibleMove reports whether moving v to part t keeps every resource of
// both affected parts within balance.
func (m *cutModel) feasibleMove(v int32, t int) bool {
	from := int(m.a[v])
	for r := 0; r < m.h.NumResources(); r++ {
		w := m.h.WeightIn(int(v), r)
		if m.weight[from][r]-w < m.p.Balance.Min[from][r] {
			return false
		}
		if m.weight[t][r]+w > m.p.Balance.Max[t][r] {
			return false
		}
	}
	return true
}

// moveVertex commits v's part change: per-resource weights and assignment.
// Pin counts are shifted net-by-net by the caller (the policy layer reads Φ
// mid-transition to apply the critical-net gain rules).
func (m *cutModel) moveVertex(v int32, from, to int) {
	for r := 0; r < m.h.NumResources(); r++ {
		w := m.h.WeightIn(int(v), r)
		m.weight[from][r] -= w
		m.weight[to][r] += w
	}
	m.a[v] = int8(to)
}

// undoMove reverses a committed move structurally (pin counts, weights,
// assignment), returning v to part f. Gains are rebuilt at the next pass, so
// they are left stale.
func (m *cutModel) undoMove(v int32, f int) {
	k := m.k
	cur := int(m.a[v])
	for _, en := range m.h.NetsOf(int(v)) {
		base := int(en) * k
		m.pinCount[base+cur]--
		m.pinCount[base+f]++
	}
	m.moveVertex(v, cur, f)
}
