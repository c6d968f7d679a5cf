package fm

// This file freezes the localized FM engine as it stood before the search
// kept its move gains incrementally (a round-start gain table plus
// copy-on-touch per-search vectors). Every search here re-prices a
// candidate by scanning its nets against the round-start Φ plus the search
// overlay. TestLocalizedRefineMatchesReference and FuzzFMKernel run the
// production engine against it and require identical assignments and
// counters, so the incremental bookkeeping is an optimisation, never a
// behavioural change. Test-only: it is not part of the production build.

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/partition"
)

// refLocState holds the pooled per-run shared state of the localized engine:
// boundary stamps, the seed queue, per-round results and the commit-phase
// round stamps. One refLocState serves a whole localizedRefineReference call.
type refLocState struct {
	bnd        []int32 // round stamp: vertex is a boundary seed this round
	seedChunks [][]int32
	seeds      []int32
	results    []locPrefix
	order      []int32
	vRound     []int32 // round a vertex was last committed, -1 = never
	netRound   []int32 // round a net's Φ row last changed, -1 = never
}

var refLocStatePool = sync.Pool{New: func() any { return &refLocState{} }}

func (st *refLocState) prepare(nv, ne, chunks int) {
	st.bnd = growInt32(st.bnd, nv)
	for i := range st.bnd {
		st.bnd[i] = -1
	}
	st.vRound = growInt32(st.vRound, nv)
	for i := range st.vRound {
		st.vRound[i] = -1
	}
	st.netRound = growInt32(st.netRound, ne)
	for i := range st.netRound {
		st.netRound[i] = -1
	}
	if cap(st.seedChunks) < chunks {
		st.seedChunks = make([][]int32, chunks)
	}
	st.seedChunks = st.seedChunks[:chunks]
	if cap(st.seeds) < 64 {
		st.seeds = make([]int32, 0, 1024)
	}
}

// refLocScratch is one worker's private search state. Every per-vertex and
// per-net array is generation-stamped: a search bumps gen once and an entry
// is live only when its stamp equals gen, so searches never pay a clearing
// scan. gen persists across runs of the same scratch (stale stamps are always
// from older generations); freshly grown arrays are zero and gen starts at 1,
// so a stale stamp can never collide with a live generation.
type refLocScratch struct {
	gen      int32
	vGen     []int32 // overlay assignment stamp
	vPart    []int8  // overlay part when vGen == gen
	acqGen   []int32 // vertex acquired by the current search
	lockGen  []int32 // vertex moved (locked) by the current search
	cacheGen []int32 // cached best move is current
	cacheT   []int8  // cached best feasible target, -1 = none
	cacheG   []int64 // cached gain of cacheT
	netGen   []int32 // Φ overlay row is live
	phiDelta []int32 // per (net, part) Φ delta at e*k+q when netGen == gen
	wDelta   [][]int64
	miss     []int64
	cand     []int32
	moves    []locMove
}

var refLocScratchPool = sync.Pool{New: func() any { return &refLocScratch{} }}

func (ls *refLocScratch) prepare(nv, ne, k, nr int) {
	ls.vGen = growInt32(ls.vGen, nv)
	ls.vPart = growInt8(ls.vPart, nv)
	ls.acqGen = growInt32(ls.acqGen, nv)
	ls.lockGen = growInt32(ls.lockGen, nv)
	ls.cacheGen = growInt32(ls.cacheGen, nv)
	ls.cacheT = growInt8(ls.cacheT, nv)
	ls.cacheG = growInt64(ls.cacheG, nv)
	ls.netGen = growInt32(ls.netGen, ne)
	ls.phiDelta = growInt32(ls.phiDelta, ne*k)
	if cap(ls.wDelta) < k {
		ls.wDelta = append(ls.wDelta[:cap(ls.wDelta)], make([][]int64, k-cap(ls.wDelta))...)
	}
	ls.wDelta = ls.wDelta[:k]
	for q := 0; q < k; q++ {
		ls.wDelta[q] = growInt64(ls.wDelta[q], nr)
	}
	ls.miss = growInt64(ls.miss, k)
	if cap(ls.cand) < locMaxDistinct {
		ls.cand = make([]int32, 0, locMaxDistinct)
	}
	if cap(ls.moves) < locMaxDistinct {
		ls.moves = make([]locMove, 0, locMaxDistinct)
	}
}

// nextGen opens a new search generation, wrapping safely long before the
// stamp space is exhausted.
func (ls *refLocScratch) nextGen() int32 {
	if ls.gen == math.MaxInt32 {
		for i := range ls.vGen {
			ls.vGen[i] = 0
		}
		for i := range ls.acqGen {
			ls.acqGen[i] = 0
		}
		for i := range ls.lockGen {
			ls.lockGen[i] = 0
		}
		for i := range ls.cacheGen {
			ls.cacheGen[i] = 0
		}
		for i := range ls.netGen {
			ls.netGen[i] = 0
		}
		ls.gen = 0
	}
	ls.gen++
	return ls.gen
}

// partOf reads v's part through the search overlay.
func (ls *refLocScratch) partOf(m *cutModel, v int32, gen int32) int8 {
	if ls.vGen[v] == gen {
		return ls.vPart[v]
	}
	return m.a[v]
}

// feasible reports whether moving v to part t keeps both affected parts
// balanced under the round-start weights plus the search's own deltas.
func (ls *refLocScratch) feasible(m *cutModel, v int32, t int, gen int32) bool {
	from := int(ls.partOf(m, v, gen))
	for r := 0; r < m.h.NumResources(); r++ {
		w := m.h.WeightIn(int(v), r)
		if m.weight[from][r]+ls.wDelta[from][r]-w < m.p.Balance.Min[from][r] {
			return false
		}
		if m.weight[t][r]+ls.wDelta[t][r]+w > m.p.Balance.Max[t][r] {
			return false
		}
	}
	return true
}

// price computes v's best feasible move against the round-start Φ plus the
// search overlay — cutModel.moveGain term by term, through the overlay. The
// gain may be negative: localized searches hill-climb and rely on best-prefix
// recording, unlike the round stage's positive-only proposals. Ties keep the
// lowest target part.
func (ls *refLocScratch) price(m *cutModel, v int32, gen int32) (int8, int64) {
	h := m.h
	k := m.k
	from := int(ls.partOf(m, v, gen))
	tgts := m.targets(v)
	miss := ls.miss
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
		if ls.netGen[en] == gen {
			if m.pinCount[nb+from]+ls.phiDelta[nb+from] == 1 {
				base += w
			}
			for _, t := range tgts {
				if m.pinCount[nb+int(t)]+ls.phiDelta[nb+int(t)] == 0 {
					miss[t] += w
				}
			}
		} else {
			if m.pinCount[nb+from] == 1 {
				base += w
			}
			for _, t := range tgts {
				if m.pinCount[nb+int(t)] == 0 {
					miss[t] += w
				}
			}
		}
	}
	bt := int8(-1)
	var bg int64
	for _, t := range tgts {
		if int(t) == from {
			continue
		}
		if g := base - miss[t]; (bt < 0 || g > bg) && ls.feasible(m, v, int(t), gen) {
			bt, bg = t, g
		}
	}
	return bt, bg
}

// refLocalizedSearch runs one bounded FM search for batch i of the round's seed
// queue and records its best strictly-positive prefix in st.results[i]. It is
// a pure function of the round-start model state, the batch and the salt, so
// which worker runs it never matters.
func refLocalizedSearch(m *cutModel, ls *refLocScratch, st *refLocState, i int, roundSalt uint64) {
	h := m.h
	k := m.k
	gen := ls.nextGen()
	sHash := refineHash(roundSalt, int32(i))
	lo := i * locSeedsPerSearch
	hi := min(lo+locSeedsPerSearch, len(st.seeds))
	ls.cand = ls.cand[:0]
	for _, s := range st.seeds[lo:hi] {
		ls.acqGen[s] = gen
		ls.cand = append(ls.cand, s)
	}
	for q := 0; q < k; q++ {
		for r := range ls.wDelta[q] {
			ls.wDelta[q][r] = 0
		}
	}
	ls.moves = ls.moves[:0]
	var cum, bestG int64
	bestLen := 0

	for len(ls.moves) < locMaxDistinct && len(ls.moves)-bestLen < locStall {
		// Select the best move among unlocked candidates: gain descending,
		// then the salted per-search vertex hash, then the vertex id.
		var bv int32 = -1
		var bt int8
		var bg int64
		var bh uint64
		for _, v := range ls.cand {
			if ls.lockGen[v] == gen {
				continue
			}
			if ls.cacheGen[v] != gen {
				t, g := ls.price(m, v, gen)
				ls.cacheT[v], ls.cacheG[v] = t, g
				ls.cacheGen[v] = gen
			}
			t, g := ls.cacheT[v], ls.cacheG[v]
			if t >= 0 && !ls.feasible(m, v, int(t), gen) {
				// The cached target went infeasible under the search's own
				// weight deltas; re-price against the current local state.
				t, g = ls.price(m, v, gen)
				ls.cacheT[v], ls.cacheG[v] = t, g
			}
			if t < 0 {
				continue
			}
			hv := refineHash(sHash, v)
			if bv < 0 || g > bg || (g == bg && (hv < bh || (hv == bh && v < bv))) {
				bv, bt, bg, bh = v, t, g, hv
			}
		}
		if bv < 0 {
			break
		}

		// Apply the move to the overlay, lock the vertex, acquire newly
		// boundary-adjacent pins and invalidate their cached prices.
		from := int(ls.partOf(m, bv, gen))
		ls.vGen[bv] = gen
		ls.vPart[bv] = bt
		ls.lockGen[bv] = gen
		for r := 0; r < h.NumResources(); r++ {
			w := h.WeightIn(int(bv), r)
			ls.wDelta[from][r] -= w
			ls.wDelta[bt][r] += w
		}
		for _, en := range h.NetsOf(int(bv)) {
			// Nets whose immovable pins cover every part never contribute to
			// any gain (cutModel.moveGain skips them), so the overlay skips
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
			ls.phiDelta[nb+from]--
			ls.phiDelta[nb+int(bt)]++
			for _, u := range h.Pins(int(en)) {
				if !m.movable[u] {
					continue
				}
				if ls.acqGen[u] != gen {
					if len(ls.cand) >= locMaxDistinct {
						continue
					}
					ls.acqGen[u] = gen
					ls.cand = append(ls.cand, u)
				}
				ls.cacheGen[u] = 0
			}
		}
		ls.moves = append(ls.moves, locMove{v: bv, from: int8(from), to: bt})
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

// localizedRefineReference improves a feasible k-way assignment with deterministic
// localized parallel FM (see the file comment for round semantics). The
// initial assignment is not modified. workers < 1 runs the searches serially;
// the result is bit-identical for every worker count. salt seeds the commit
// order and the per-search tie-breaks and is the engine's only randomness —
// callers draw it once from their RNG so the stream stays
// worker-count-agnostic. Working state comes from internal sync.Pools; use
// localizedRefineReferenceWith to manage the FM Scratch explicitly.
func localizedRefineReference(p *partition.Problem, initial partition.Assignment, cfg Config, workers int, salt uint64) (*LocalizedResult, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return localizedRefineReferenceWith(p, initial, cfg, workers, salt, sc)
}

// localizedRefineReferenceWith is localizedRefineReference running on a caller-provided Scratch,
// for drivers that pin one scratch per worker across a whole descent. The
// result never aliases scratch memory.
func localizedRefineReferenceWith(p *partition.Problem, initial partition.Assignment, cfg Config, workers int, salt uint64, sc *Scratch) (*LocalizedResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Feasible(initial); err != nil {
		return nil, fmt.Errorf("fm: initial assignment: %w", err)
	}
	m := &cutModel{}
	m.init(p, initial, sc)
	res := &LocalizedResult{Movable: m.nMovable}
	if m.nMovable == 0 {
		res.Assignment = m.a.Clone()
		return res, nil
	}

	W := workers
	if W < 1 {
		W = 1
	}
	P := W // chunk count for the boundary scans; never influences results
	h := m.h
	k := m.k
	nv := h.NumVertices()
	ne := h.NumNets()

	st := refLocStatePool.Get().(*refLocState)
	defer refLocStatePool.Put(st)
	st.prepare(nv, ne, P)
	slots := par.EffectiveWorkers(P, W)
	scratches := make([]*refLocScratch, slots)
	for i := range scratches {
		scratches[i] = refLocScratchPool.Get().(*refLocScratch)
		scratches[i].prepare(nv, ne, k, h.NumResources())
	}
	defer func() {
		for _, ls := range scratches {
			refLocScratchPool.Put(ls)
		}
	}()

	for round := 0; ; round++ {
		res.Rounds = round + 1
		roundSalt := salt + uint64(round)*0x9e3779b97f4a7c15

		// Collect the boundary: stamp the movable pins of every net spanning
		// more than one part, then gather the stamped vertices ascending.
		// Chunks only split the scans; the merged seed list is ascending by
		// vertex id whatever P is.
		par.ForEachWorker(P, W, func(_, c int) {
			lo, hi := refineChunk(ne, P, c)
			for en := lo; en < hi; en++ {
				if int(m.fixedCover[en]) == k {
					continue
				}
				base := en * k
				span := 0
				for q := 0; q < k; q++ {
					if m.pinCount[base+q] > 0 {
						if span++; span == 2 {
							break
						}
					}
				}
				if span < 2 {
					continue
				}
				for _, u := range h.Pins(en) {
					if !m.movable[u] {
						continue
					}
					if W == 1 {
						st.bnd[u] = int32(round)
					} else {
						// Stores race benignly: every writer stores the same
						// round value.
						atomic.StoreInt32(&st.bnd[u], int32(round))
					}
				}
			}
		})
		par.ForEachWorker(P, W, func(_, c int) {
			lo, hi := refineChunk(nv, P, c)
			lst := st.seedChunks[c][:0]
			for v := lo; v < hi; v++ {
				if st.bnd[v] == int32(round) {
					lst = append(lst, int32(v))
				}
			}
			st.seedChunks[c] = lst
		})
		seeds := st.seeds[:0]
		for c := 0; c < P; c++ {
			seeds = append(seeds, st.seedChunks[c]...)
		}
		st.seeds = seeds
		if len(seeds) == 0 {
			break
		}

		// Search: workers pull batch indices from a shared queue; results are
		// stored by batch index, so the queue only balances load.
		nSearch := (len(seeds) + locSeedsPerSearch - 1) / locSeedsPerSearch
		if cap(st.results) < nSearch {
			st.results = make([]locPrefix, nSearch)
		}
		st.results = st.results[:nSearch]
		var next int64
		par.ForEachWorker(P, W, func(w, _ int) {
			ls := scratches[w]
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= nSearch {
					return
				}
				refLocalizedSearch(m, ls, st, i, roundSalt)
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
		commits := 0
		for _, i := range order {
			pr := &st.results[i]
			conflict := false
			for _, mv := range pr.moves {
				if st.vRound[mv.v] == int32(round) {
					conflict = true
					break
				}
				for _, en := range h.NetsOf(int(mv.v)) {
					if st.netRound[en] == int32(round) && int(m.fixedCover[en]) != k {
						conflict = true
						break
					}
				}
				if conflict {
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
				total += m.moveGain(v, t)
				for _, en := range h.NetsOf(int(v)) {
					nb := int(en) * k
					m.pinCount[nb+from]--
					m.pinCount[nb+t]++
				}
				m.moveVertex(v, from, t)
				applied++
			}
			if !ok || total <= 0 {
				for j := applied - 1; j >= 0; j-- {
					m.undoMove(pr.moves[j].v, int(pr.moves[j].from))
				}
				continue
			}
			for _, mv := range pr.moves {
				st.vRound[mv.v] = int32(round)
				for _, en := range h.NetsOf(int(mv.v)) {
					if int(m.fixedCover[en]) != k {
						st.netRound[en] = int32(round)
					}
				}
			}
			res.Gain += total
			res.Moves += applied
			res.Committed++
			commits++
		}
		if commits == 0 {
			// No state changed; the next round would replay this one forever.
			break
		}
	}

	res.Assignment = m.a.Clone() // a is scratch-backed; the result must not alias it
	return res, nil
}
