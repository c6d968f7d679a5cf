package fm

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/partition"
)

// This file implements the deterministic localized parallel FM engine behind
// multilevel.Config.LocalizedFMWorkers, the mt-KaHyPar-style answer to the
// finest-level serial-polish bottleneck: instead of one global FM pass over
// every movable vertex, many small bounded FM searches run concurrently, each
// seeded from a batch of boundary vertices and each free to walk through
// negative-gain prefixes — the hill-climbing power the strictly-positive
// synchronous-round stage (parallel.go) lacks. Each round
//
//  1. the boundary supplies the seeds: a movable vertex is a seed when one
//     of its (non-fully-covered) nets spans more than one part; the seed
//     list ascends by vertex id and is split into fixed-size batches. It is
//     collected once per run, then updated after each commit phase from the
//     nets the commits changed (updateBoundary), never by scanning every net,
//  2. workers pull batch indices from a shared atomic queue and run one
//     bounded localized search per batch against the round-start state: the
//     search tracks its own moves in a per-worker stamped overlay (Φ deltas,
//     balance slacks, per-candidate gain vectors) so it never mutates shared
//     state, acquires at most locMaxDistinct vertices (the batch seeds plus
//     pins of nets its own moves touch), moves each acquired vertex at most
//     once, stops after locStall consecutive non-improving moves, and records
//     its best prefix when that prefix has strictly positive gain,
//  3. a serial commit phase applies the recorded prefixes in a deterministic
//     order — prefix gain descending, then a salted splitmix64 hash of the
//     search index, then the index — under the house conflict rules: a prefix
//     is skipped whole when any of its vertices, or any gain-relevant net of
//     its vertices, was already committed into this round (first winner takes
//     the conflict group, which keeps every committed prefix's gain exact
//     against the round snapshot), and every move is re-checked for balance
//     feasibility and re-priced (attributed-gain recheck) against the live
//     state as it is applied; a prefix that turns infeasible or unprofitable
//     mid-commit is rolled back move by move and skipped.
//
// Rounds repeat until the boundary is empty or a round commits nothing.
//
// Gain maintenance: no search scans a vertex's nets to price it. The
// roundState it shares with the round stage (roundstate.go) keeps a
// round-start gain table (each movable vertex's gain to every target
// against the round-start Φ), taken over from the level when it is exact
// and built once per run otherwise, and refreshed after each
// commit phase only for the movable pins of the gain-relevant nets the
// committed prefixes touched. A search copies a candidate's table row into
// a slot-indexed vector the first time one of its moves touches the
// candidate's nets, then applies only the (λ-1) threshold crossings of each
// later move (see localizedSearch). Gains are exact integers either way, so
// every pick, prefix and commit matches a search that re-prices from
// scratch.
// Every search is a pure function of (round-start state, batch index, salt)
// and the commit order is a pure function of the recorded results, so the
// outcome is bit-identical for every worker count >= 1 — the queue only
// decides which goroutine computes which batch. Termination: each committed
// prefix applies its exact, strictly positive (λ-1) gain, so the
// connectivity strictly decreases and is bounded below by zero.

const (
	// locSeedsPerSearch is the number of boundary seeds one localized search
	// starts from. Larger batches mean fewer, broader searches; smaller ones
	// mean more parallelism but more per-search fixed cost.
	locSeedsPerSearch = 16
	// locMaxDistinct bounds the distinct vertices one search may acquire
	// (seeds plus vertices pulled in from nets its moves touch). Each
	// acquired vertex moves at most once, so it also bounds the prefix
	// length.
	locMaxDistinct = 64
	// locStall ends a search after this many consecutive moves that failed
	// to reach a new best prefix.
	locStall = 8
)

// LocalizedResult is the outcome of a LocalizedRefine run.
type LocalizedResult struct {
	// Assignment is the refined solution (feasible by construction; never
	// aliases scratch memory).
	Assignment partition.Assignment
	// Rounds is the number of collect/search/commit rounds executed,
	// including the final round that produced no commits.
	Rounds int
	// Searches is the total number of localized searches run across rounds.
	Searches int
	// Committed is the number of search prefixes that survived the commit
	// phase's conflict and recheck rules.
	Committed int
	// Moves is the total number of committed moves.
	Moves int
	// Gain is the total (λ-1) connectivity reduction achieved (>= 0). At
	// k = 2 this equals the cut reduction.
	Gain int64
	// Movable is the number of vertices with at least two allowed parts.
	Movable int
}

// locMove logs one localized-search move: the vertex, where it came from and
// where it went. from is recorded so the commit phase can verify the prefix
// still applies to the live state.
type locMove struct {
	v        int32
	from, to int8
}

// locPrefix is one search's recorded best prefix (empty when the search found
// no strictly positive prefix).
type locPrefix struct {
	gain  int64
	moves []locMove
}

// locSlot is one candidate of the current search. Slots are numbered in
// acquisition order, so a search never holds more than locMaxDistinct.
type locSlot struct {
	v      int32
	hash   uint64 // salted per-search vertex hash, the select tie-break
	g      int64  // cached gain of t
	t      int8   // cached best feasible target, -1 = none
	cached bool   // t and g are current
	locked bool   // moved by this search
	owned  bool   // the slot's gain vector is live
}

// locScratch is one worker's private search state. The per-vertex and
// per-net arrays are generation-stamped: a search bumps gen once and an
// entry is live only when its stamp equals gen, so searches never pay a
// clearing scan. gen persists across runs of the same scratch (stale stamps
// are always from older generations); freshly grown arrays are zero and gen
// starts at 1, so a stale stamp can never collide with a live generation.
// Everything else is per candidate slot and reset as slots are acquired.
type locScratch struct {
	gen      int32
	acqGen   []int32 // vertex acquired by the current search
	slotOf   []int32 // the vertex's slot when acqGen == gen
	netGen   []int32 // Φ overlay row is live
	phiDelta []int32 // per (net, part) Φ delta at e*k+q when netGen == gen
	slots    []locSlot
	// vec holds each owned slot's gain vector at s*k+t: the slot vertex's
	// table row with the deltas of every move of this search applied.
	vec  []int64
	scan []int32 // unlocked slots, in no particular order
	// slackLo and slackHi are the round-start slacks (see roundState) minus
	// the search's own weight moves.
	slackLo, slackHi []int64
	moves            []locMove
}

var locScratchPool = sync.Pool{New: func() any { return &locScratch{} }}

func (ls *locScratch) prepare(nv, ne, k, nr int) {
	ls.acqGen = growInt32(ls.acqGen, nv)
	ls.slotOf = growInt32(ls.slotOf, nv)
	ls.netGen = growInt32(ls.netGen, ne)
	ls.phiDelta = growInt32(ls.phiDelta, ne*k)
	if cap(ls.slots) < locMaxDistinct {
		ls.slots = make([]locSlot, 0, locMaxDistinct)
	}
	ls.vec = growInt64(ls.vec, locMaxDistinct*k)
	if cap(ls.scan) < locMaxDistinct {
		ls.scan = make([]int32, 0, locMaxDistinct)
	}
	ls.slackLo = growInt64(ls.slackLo, k*nr)
	ls.slackHi = growInt64(ls.slackHi, k*nr)
	if cap(ls.moves) < locMaxDistinct {
		ls.moves = make([]locMove, 0, locMaxDistinct)
	}
}

// nextGen opens a new search generation, wrapping safely long before the
// stamp space is exhausted.
func (ls *locScratch) nextGen() int32 {
	if ls.gen == math.MaxInt32 {
		for i := range ls.acqGen {
			ls.acqGen[i] = 0
		}
		for i := range ls.netGen {
			ls.netGen[i] = 0
		}
		ls.gen = 0
	}
	ls.gen++
	return ls.gen
}

// acquire makes u a candidate of the current search and returns its slot.
func (ls *locScratch) acquire(u int32, gen int32, sHash uint64) int32 {
	s := int32(len(ls.slots))
	ls.acqGen[u] = gen
	ls.slotOf[u] = s
	ls.slots = append(ls.slots, locSlot{v: u, hash: refineHash(sHash, u)})
	ls.scan = append(ls.scan, s)
	return s
}

// feasible reports whether moving unlocked v to part t keeps both affected
// parts balanced under the round-start weights plus the search's own moves.
func (ls *locScratch) feasible(m *cutModel, v int32, t int) bool {
	nr := m.h.NumResources()
	fb, tb := int(m.a[v])*nr, t*nr
	for r := 0; r < nr; r++ {
		w := m.h.WeightIn(int(v), r)
		if w > ls.slackLo[fb+r] || w > ls.slackHi[tb+r] {
			return false
		}
	}
	return true
}

// price returns slot s's best feasible move against the round-start Φ plus
// the search overlay. The gains come from the slot's own vector once a move
// of this search touched one of the vertex's nets, and from the round table
// before that, so pricing never scans nets. The gain may be negative:
// localized searches hill-climb and rely on best-prefix recording, unlike
// the round stage's positive-only proposals. Ties keep the lowest target
// part.
func (ls *locScratch) price(m *cutModel, st *roundState, s int32) (int8, int64) {
	k := m.k
	sl := &ls.slots[s]
	v := sl.v
	row := st.gain[int(v)*k : int(v)*k+k]
	if sl.owned {
		row = ls.vec[int(s)*k : int(s)*k+k]
	}
	from := m.a[v]
	bt := int8(-1)
	var bg int64
	for _, t := range m.targets(v) {
		if t == from {
			continue
		}
		if g := row[t]; (bt < 0 || g > bg) && ls.feasible(m, v, int(t)) {
			bt, bg = t, g
		}
	}
	return bt, bg
}

// localizedSearch runs one bounded FM search for batch i of the round's seed
// queue and records its best strictly-positive prefix in st.results[i]. It is
// a pure function of the round-start model state, the batch and the salt, so
// which worker runs it never matters. Only unlocked candidates are ever
// priced or checked for balance, and an unlocked vertex still sits in its
// round-start part, so the search reads parts from the model directly.
func localizedSearch(m *cutModel, ls *locScratch, st *roundState, i int, roundSalt uint64) {
	h := m.h
	k := m.k
	nr := h.NumResources()
	gen := ls.nextGen()
	sHash := refineHash(roundSalt, int32(i))
	lo := i * locSeedsPerSearch
	hi := min(lo+locSeedsPerSearch, len(st.seeds))
	ls.slots = ls.slots[:0]
	ls.scan = ls.scan[:0]
	for _, s := range st.seeds[lo:hi] {
		ls.acquire(s, gen, sHash)
	}
	copy(ls.slackLo, st.slackLo)
	copy(ls.slackHi, st.slackHi)
	ls.moves = ls.moves[:0]
	var cum, bestG int64
	bestLen := 0
	// The previous move's parts. A move only tightens leaving its source
	// part and entering its target part, so a cached target that was
	// feasible at the previous scan can only have turned infeasible when
	// its vertex sits in lastFrom or the target is lastTo.
	lastFrom, lastTo := int8(-1), int8(-1)

	for len(ls.moves) < locMaxDistinct && len(ls.moves)-bestLen < locStall {
		// Select the best move among unlocked candidates: gain descending,
		// then the salted per-search vertex hash, then the vertex id. The
		// order is strict, so the scan order cannot change the pick.
		bj := -1
		var best *locSlot
		for j, s := range ls.scan {
			sl := &ls.slots[s]
			if !sl.cached {
				sl.t, sl.g = ls.price(m, st, s)
				sl.cached = true
			} else if sl.t >= 0 && (m.a[sl.v] == lastFrom || sl.t == lastTo) && !ls.feasible(m, sl.v, int(sl.t)) {
				// The cached target went infeasible under the search's own
				// weight moves; re-price against the current local state.
				sl.t, sl.g = ls.price(m, st, s)
			}
			if sl.t < 0 {
				continue
			}
			if best == nil || sl.g > best.g || (sl.g == best.g && (sl.hash < best.hash || (sl.hash == best.hash && sl.v < best.v))) {
				bj, best = j, sl
			}
		}
		if best == nil {
			break
		}

		// Apply the move to the overlay, lock the vertex, acquire newly
		// boundary-adjacent pins, invalidate their cached prices and carry
		// the move's gain deltas into their vectors.
		bv, bt := best.v, int(best.t)
		bg := best.g
		from := int(m.a[bv])
		best.locked = true
		last := len(ls.scan) - 1
		ls.scan[bj] = ls.scan[last]
		ls.scan = ls.scan[:last]
		fb, tb := from*nr, bt*nr
		for r := 0; r < nr; r++ {
			w := h.WeightIn(int(bv), r)
			ls.slackLo[fb+r] -= w
			ls.slackHi[fb+r] += w
			ls.slackLo[tb+r] += w
			ls.slackHi[tb+r] -= w
		}
		for _, en := range h.NetsOf(int(bv)) {
			// Nets whose immovable pins cover every part never contribute to
			// any gain (cutModel.gainRow skips them), so the overlay skips
			// them too; the commit phase still shifts their real Φ rows.
			if int(m.fixedCover[en]) == k {
				continue
			}
			nb := int(en) * k
			if ls.netGen[en] != gen {
				ls.netGen[en] = gen
				for q := 0; q < k; q++ {
					ls.phiDelta[nb+q] = 0
				}
			}
			// Φ of the two parts the move shifts, before the move.
			cf := m.pinCount[nb+from] + ls.phiDelta[nb+from]
			ct := m.pinCount[nb+bt] + ls.phiDelta[nb+bt]
			ls.phiDelta[nb+from]--
			ls.phiDelta[nb+bt]++
			// Another pin's gains change only where Φ crosses a (λ-1)
			// threshold: Φ(from) 2→1 leaves one pin alone in from (+w on
			// all its targets), 1→0 empties from (-w for moving there),
			// Φ(to) 0→1 occupies to (+w for moving there), 1→2 joins the
			// pin that was alone in to (-w on all its targets).
			crosses := cf <= 2 || ct <= 1
			w := h.NetWeight(int(en))
			for _, u := range h.Pins(int(en)) {
				if !m.movable[u] {
					continue
				}
				var s int32
				if ls.acqGen[u] == gen {
					s = ls.slotOf[u]
				} else if len(ls.slots) < locMaxDistinct {
					s = ls.acquire(u, gen, sHash)
				} else {
					continue
				}
				sl := &ls.slots[s]
				if sl.locked {
					continue
				}
				sl.cached = false
				if !crosses {
					continue
				}
				// Copy on touch: none of u's nets was touched before this
				// move (u would have been acquired then), so its table row
				// is exact up to this net.
				vec := ls.vec[int(s)*k : int(s)*k+k]
				if !sl.owned {
					copy(vec, st.gain[int(u)*k:int(u)*k+k])
					sl.owned = true
				}
				if cf == 1 {
					vec[from] -= w
				}
				if ct == 0 {
					vec[bt] += w
				}
				var all int64
				if pu := int(m.a[u]); cf == 2 && pu == from {
					all = w
				} else if ct == 1 && pu == bt {
					all = -w
				}
				if all != 0 {
					for q := range vec {
						vec[q] += all
					}
				}
			}
		}
		lastFrom, lastTo = int8(from), int8(bt)
		ls.moves = append(ls.moves, locMove{v: bv, from: int8(from), to: int8(bt)})
		cum += bg
		if cum > bestG {
			bestG, bestLen = cum, len(ls.moves)
		}
	}

	if bestG > 0 {
		moves := make([]locMove, bestLen)
		copy(moves, ls.moves[:bestLen])
		st.results[i] = locPrefix{gain: bestG, moves: moves}
	} else {
		st.results[i] = locPrefix{}
	}
}

// LocalizedRefine improves a feasible k-way assignment with deterministic
// localized parallel FM (see the file comment for round semantics). The
// initial assignment is not modified. workers < 1 runs the searches serially;
// the result is bit-identical for every worker count. salt seeds the commit
// order and the per-search tie-breaks and is the engine's only randomness —
// callers draw it once from their RNG so the stream stays
// worker-count-agnostic. Working state comes from internal sync.Pools. It is
// NewLevel followed by Localized.
func LocalizedRefine(p *partition.Problem, initial partition.Assignment, cfg Config, workers int, salt uint64) (*LocalizedResult, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	l, err := NewLevel(p, initial, cfg, sc)
	if err != nil {
		return nil, err
	}
	res := l.Localized(workers, salt)
	res.Assignment = l.Assignment()
	return &res, nil
}

// Localized runs the localized FM stage on the level (see the file comment
// and LocalizedRefine) and returns its counters; Assignment is left nil, the
// level holds the result. The gain table is taken over when the level holds
// it exact and built otherwise, and is exact again when the stage returns.
func (l *Level) Localized(workers int, salt uint64) LocalizedResult {
	res := LocalizedResult{Movable: l.m.nMovable}
	if l.m.nMovable == 0 {
		return res
	}
	W := max(workers, 1)
	scratches := make([]*locScratch, par.EffectiveWorkers(W, W))
	for i := range scratches {
		scratches[i] = locScratchPool.Get().(*locScratch)
	}
	defer func() {
		for _, ls := range scratches {
			locScratchPool.Put(ls)
		}
	}()
	r := newLocRun(l, scratches, W, salt, &res)
	for round := 0; ; round++ {
		if commits, _ := r.round(round); commits == 0 {
			break
		}
	}
	l.km1 -= res.Gain
	return res
}

// locRun is one localized run on a level: the worker count, the search
// scratches (one per worker slot), the salt and the counters it accumulates.
type locRun struct {
	m         *cutModel
	st        *roundState
	scratches []*locScratch
	W         int // worker count, also the chunk count; never influences results
	salt      uint64
	res       *LocalizedResult
	row       []int64 // the commit recheck's pricing row
}

// newLocRun sizes the round state and the scratches for a run on a level
// with at least one movable vertex, takes over or builds the gain table,
// and collects the initial boundary.
func newLocRun(l *Level, scratches []*locScratch, W int, salt uint64, res *LocalizedResult) *locRun {
	m := &l.m
	st := &l.sc.round
	r := &locRun{m: m, st: st, scratches: scratches, W: W, salt: salt, res: res, row: make([]int64, m.k)}
	h := m.h
	k := m.k
	nv := h.NumVertices()
	ne := h.NumNets()
	nr := h.NumResources()
	st.begin(m, W)
	l.buildTable(W, W)
	st.vRound = fillInt32(st.vRound, nv, -1)
	st.slackLo = growInt64(st.slackLo, k*nr)
	st.slackHi = growInt64(st.slackHi, k*nr)
	for _, ls := range scratches {
		ls.prepare(nv, ne, k, nr)
	}
	r.collectBoundary()
	return r
}

// collectBoundary builds the boundary from scratch, once per run: it flags
// every gain-relevant net spanning more than one part, counts each movable
// vertex's flagged nets, and lists the vertices with a positive count
// ascending.
func (r *locRun) collectBoundary() {
	m, st := r.m, r.st
	h := m.h
	k := m.k
	nv := h.NumVertices()
	ne := h.NumNets()
	st.cutNet = growBool(st.cutNet, ne)
	st.bcount = growInt32(st.bcount, nv)
	st.seeded = growBool(st.seeded, nv)
	for en := 0; en < ne; en++ {
		st.cutNet[en] = int(m.fixedCover[en]) != k && spansTwo(m.pinCount[en*k:en*k+k])
	}
	seeds := st.seeds[:0]
	for v := 0; v < nv; v++ {
		n := int32(0)
		if m.movable[v] {
			for _, en := range h.NetsOf(v) {
				if st.cutNet[en] {
					n++
				}
			}
		}
		st.bcount[v] = n
		st.seeded[v] = n > 0
		if n > 0 {
			seeds = append(seeds, int32(v))
		}
	}
	st.seeds = seeds
}

// spansTwo reports whether a net's Φ row covers at least two parts.
func spansTwo(row []int32) bool {
	span := 0
	for _, c := range row {
		if c > 0 {
			if span++; span == 2 {
				return true
			}
		}
	}
	return false
}

// updateBoundary brings the boundary up to date after a commit phase. Only
// the nets the committed prefixes changed (st.touched) can have entered or
// left the cut — rolled-back prefixes restore Φ exactly, and nets whose
// immovable pins cover every part are never flagged — so only their pins'
// counts move. The vertices whose membership flipped are then merged into
// the ascending seed list.
func (r *locRun) updateBoundary() {
	m, st := r.m, r.st
	h := m.h
	k := m.k
	st.flips = st.flips[:0]
	for _, en := range st.touched {
		now := spansTwo(m.pinCount[int(en)*k : int(en)*k+k])
		if now == st.cutNet[en] {
			continue
		}
		st.cutNet[en] = now
		d := int32(-1)
		if now {
			d = 1
		}
		for _, u := range h.Pins(int(en)) {
			if m.movable[u] {
				st.bcount[u] += d
				st.flips = append(st.flips, u)
			}
		}
	}
	adds := st.flips[:0] // filtered in place
	for _, u := range st.flips {
		if now := st.bcount[u] > 0; now != st.seeded[u] {
			st.seeded[u] = now
			if now {
				adds = append(adds, u)
			}
		}
	}
	slices.Sort(adds)
	next := st.seedBuf[:0]
	i := 0
	for _, u := range st.seeds {
		if !st.seeded[u] {
			continue
		}
		for i < len(adds) && adds[i] < u {
			next = append(next, adds[i])
			i++
		}
		next = append(next, u)
	}
	next = append(next, adds[i:]...)
	st.seeds, st.seedBuf = next, st.seeds
}

// round runs one search/commit round on the current boundary, then brings
// the boundary and the gain table up to date, and returns the number of
// committed prefixes (0 ends the run: the boundary was empty or no state
// changed, so the next round would replay this one) and of prefixes rolled
// back by the commit recheck.
func (r *locRun) round(round int) (commits, rolledBack int) {
	m, st, res := r.m, r.st, r.res
	h := m.h
	k := m.k
	nr := h.NumResources()
	P, W := r.W, r.W
	res.Rounds = round + 1
	roundSalt := r.salt + uint64(round)*0x9e3779b97f4a7c15
	if len(st.seeds) == 0 {
		return 0, 0
	}
	for q := 0; q < k; q++ {
		for rr := 0; rr < nr; rr++ {
			st.slackLo[q*nr+rr] = m.weight[q][rr] - m.p.Balance.Min[q][rr]
			st.slackHi[q*nr+rr] = m.p.Balance.Max[q][rr] - m.weight[q][rr]
		}
	}

	// Search: workers pull batch indices from a shared queue; results are
	// stored by batch index, so the queue only balances load.
	nSearch := (len(st.seeds) + locSeedsPerSearch - 1) / locSeedsPerSearch
	if cap(st.results) < nSearch {
		st.results = make([]locPrefix, nSearch)
	}
	st.results = st.results[:nSearch]
	var next int64
	par.ForEachWorker(P, W, func(w, _ int) {
		ls := r.scratches[w]
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= nSearch {
				return
			}
			localizedSearch(m, ls, st, i, roundSalt)
		}
	})
	res.Searches += nSearch

	// Commit serially in the deterministic order: prefix gain descending,
	// then the salted hash of the search index, then the index.
	order := st.order[:0]
	for i := range st.results {
		if st.results[i].gain > 0 {
			order = append(order, int32(i))
		}
	}
	st.order = order
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if ga, gb := st.results[ia].gain, st.results[ib].gain; ga != gb {
			return ga > gb
		}
		ha, hb := refineHash(roundSalt, ia), refineHash(roundSalt, ib)
		if ha != hb {
			return ha < hb
		}
		return ia < ib
	})
	for _, i := range order {
		pr := &st.results[i]
		conflict := false
		for _, mv := range pr.moves {
			if st.vRound[mv.v] == int32(round) || st.conflicts(m, mv.v, int32(round)) {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		// Attributed-gain recheck: re-price and re-check feasibility of
		// every move against the live state while applying. Conflict-free
		// prefixes re-price to their recorded gain exactly; the recheck
		// guards the balance (earlier commits shift part weights without
		// touching our nets) and keeps the committed gain authoritative.
		var total int64
		applied := 0
		ok := true
		for _, mv := range pr.moves {
			v, t := mv.v, int(mv.to)
			from := int(m.a[v])
			if from != int(mv.from) || !m.feasibleMove(v, t) {
				ok = false
				break
			}
			m.gainRow(v, r.row)
			total += r.row[t]
			for _, en := range h.NetsOf(int(v)) {
				nb := int(en) * k
				m.pinCount[nb+from]--
				m.pinCount[nb+t]++
			}
			m.moveVertex(v, from, t)
			applied++
		}
		if !ok || total <= 0 {
			// Rolled back: Φ, the weights and the assignment are restored
			// exactly, so the gain table needs no refresh.
			for j := applied - 1; j >= 0; j-- {
				m.undoMove(pr.moves[j].v, int(pr.moves[j].from))
			}
			rolledBack++
			continue
		}
		// Mark the conflict groups and queue the gain rows the commit
		// invalidated.
		for _, mv := range pr.moves {
			st.vRound[mv.v] = int32(round)
			st.markStale(m, mv.v, int32(round))
		}
		res.Gain += total
		res.Moves += applied
		res.Committed++
		commits++
	}
	if commits > 0 {
		r.updateBoundary()
		st.refreshRows(m, P, W)
	}
	return commits, rolledBack
}
