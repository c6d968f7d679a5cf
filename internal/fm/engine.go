package fm

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/partition"
)

// Policy selects the FM vertex-ordering discipline.
type Policy int

const (
	// CLIP is the cluster-oriented iterative-improvement policy of Dutt and
	// Deng: bucket keys start at zero for every vertex at the beginning of a
	// pass and track only gain *updates*, so selection clusters around
	// recently moved vertices. It is the paper's engine default and the zero
	// Policy.
	CLIP Policy = iota
	// LIFO is classic FM with last-in-first-out tie-breaking within a gain
	// bucket.
	LIFO
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LIFO:
		return "LIFO"
	case CLIP:
		return "CLIP"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config controls a flat FM run.
type Config struct {
	// Policy is the vertex-selection discipline (CLIP, the zero value, or
	// LIFO).
	Policy Policy
	// Objective selects the metric the run reports as Score (and is
	// selected by upstream). Every objective walks the same (λ-1) move
	// trajectory; the zero value, ObjectiveCut, reproduces the historical
	// engine bit for bit.
	Objective Objective
	// MaxPassFraction, when in (0,1), imposes the paper's hard cutoff on
	// pass length: every pass after the first makes at most
	// max(1, fraction*movable) moves. 0 or 1 means unlimited.
	MaxPassFraction float64
	// MaxPasses bounds the number of passes (safety net; FM converges well
	// before this). 0 means the default of 64.
	MaxPasses int
	// Stats, when non-nil, accumulates the net-state-aware kernel's work
	// counters (nets skipped, pin scans avoided, bucket updates saved)
	// atomically across runs, so one KernelStats may be shared by concurrent
	// workers.
	Stats *KernelStats
}

// validate rejects a MaxPassFraction outside [0,1]. The check is written so
// that NaN fails it too: a NaN fraction would otherwise run uncut.
func (c Config) validate() error {
	if !(c.MaxPassFraction >= 0 && c.MaxPassFraction <= 1) {
		return fmt.Errorf("fm: MaxPassFraction %v outside [0,1]", c.MaxPassFraction)
	}
	return nil
}

func (c Config) maxPasses() int {
	if c.MaxPasses <= 0 {
		return 64
	}
	return c.MaxPasses
}

// PassStats records what happened in one FM pass. The paper's Table II is
// built from Kept/Movable (percentage of nodes whose moves were retained;
// the remaining moves were wasted and undone).
type PassStats struct {
	Moves int   // moves attempted during the pass
	Kept  int   // best-prefix length: moves retained after rollback
	Gain  int64 // objective reduction achieved by the pass (>= 0)
}

// Result is the outcome of a flat FM run.
type Result struct {
	// Assignment is the best solution found (feasible by construction).
	Assignment partition.Assignment
	// Cut is the weighted net cut of Assignment (nets spanning > 1 part).
	Cut int64
	// KMinus1 is the (λ-1) connectivity of Assignment, the ledger the
	// kernel's passes track (== Cut at k = 2).
	KMinus1 int64
	// Score is Assignment evaluated under the run's Objective (== Cut for
	// ObjectiveCut, == KMinus1 for ObjectiveKM1), the number multistart
	// drivers select by. It is read off the kernel's running state
	// (FuzzFMKernel cross-checks it against a from-scratch recount).
	Score int64
	// Objective is the metric the run optimized (Config.Objective).
	Objective Objective
	// Passes holds one entry per executed pass, including the final
	// zero-gain pass that triggered termination.
	Passes []PassStats
	// Movable is the number of vertices with at least two allowed parts.
	Movable int
}

// kernel is the policy layer of the part-count-generic FM engine: it owns
// move ordering (LIFO/CLIP seeding, per-part gain buckets over move ids
// v*k+t, heavier-part-first selection), the pass loop with its cutoffs, and
// best-prefix rollback. The structural state and gain arithmetic live in the
// embedded *cutModel, whose fields the hot paths (Φ shifts, packed net
// records, bucket addressing) address directly. For k = 2 under the default
// cut objective the kernel reproduces the dedicated bipartition engine move
// for move.
type kernel struct {
	*cutModel
	lv  *Level
	cfg Config
	sc  *Scratch

	// gk interleaves the actual gain (gk[2*mid]) and the bucket key
	// (gk[2*mid+1], == gain under LIFO, delta-only under CLIP) of each move
	// id. Every hot-path delta adjusts both, so interleaving puts the pair on
	// one cache line instead of two parallel arrays apart.
	gk        []int64
	nodes     *bucketNodes
	buckets   []gainBuckets // buckets[q] holds moves of vertices in part q
	partOrder []int32

	// The per-pass locked-net counters live inside the packed cutModel
	// .passNet records (one cache line shared by four nets at k = 2):
	//
	//   - slots [0, k) count this pass's locked pins (fixed terminals plus
	//     moved vertices) per part, and slot k+1 the parts with at least one.
	//     Once the cover reaches k — tracked only for nets of >=
	//     lockTrackMinPins pins — the net's gain contributions are frozen for
	//     the rest of the pass (see applyMove) and its pins are never scanned
	//     again. Smaller nets are left untracked: their dedicated fast paths
	//     cost less, and a 2-pin net can never become covered mid-pass anyway
	//     (the mover itself is still unlocked).
	//   - slot k counts the net's movable pins not yet locked this pass
	//     (seeded from cutModel.movablePins each initPass). When the moving
	//     vertex is a net's last unlocked movable pin, every gain delta would
	//     land on a locked or immovable pin — both out of the buckets — so
	//     the net is skipped for the cost of one counter decrement. This
	//     works for nets of any size, including the 2-pin nets the per-part
	//     counters cannot cover.

	// Batched bucket repositioning: touch() records gain deltas in touchLog
	// (with duplicates) while stamping each move id's latest log position in
	// lastPos, and applyMove repositions each touched move id exactly once,
	// in the chronological order of last touches, which reproduces the
	// incremental scheme's LIFO bucket order byte for byte.
	touchLog []int32
	lastPos  []int32

	// rows holds each movable vertex's pass-start gain row at v*k+t, dense
	// by move id: initPass prices into it and CLIP's seeding sort reads it.
	// It is the level's gain table, so when the table is exact at the start
	// of the run (tableRows), the first initPass reads it instead of
	// pricing.
	rows      []int64
	tableRows bool

	// Work counters for Config.Stats.
	netsSkipped        int64
	pinScansAvoided    int64
	pinsScanned        int64
	bucketUpdatesSaved int64
}

// Refine refines the feasible initial assignment with flat FM passes for any
// part count and returns the best solution found. Every (vertex, target
// part) move has its own gain bucket entry, gains measure the (λ-1)
// connectivity delta (the classic cut gain at k = 2), passes lock each vertex
// after its first move and roll back to the best prefix, and the Config's
// policy and pass cutoff apply. Fixed vertices and OR-region masks are
// honoured. The initial assignment is not modified and the result never
// aliases scratch memory; working state comes from an internal sync.Pool.
// It is NewLevel followed by Polish.
func Refine(p *partition.Problem, initial partition.Assignment, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	l, err := NewLevel(p, initial, cfg, sc)
	if err != nil {
		return nil, err
	}
	passes := l.Polish(cfg)
	return &Result{
		Assignment: l.Assignment(),
		Cut:        l.Cut(),
		KMinus1:    l.km1,
		Score:      l.Score(),
		Objective:  cfg.Objective,
		Passes:     passes,
		Movable:    l.m.nMovable,
	}, nil
}

// RunFromRandom draws a random feasible starting assignment and refines it
// with flat FM. This is the paper's "single FM start" building block (the
// first pass traditionally begins from a random partitioning).
func RunFromRandom(p *partition.Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, err
	}
	return Refine(p, initial, cfg)
}

// Polish runs the serial FM kernel on the level under cfg's policy, pass
// cutoffs and kernel counters (cfg.Objective is unused: the level's
// objective decides Score), with the level's current movability. It returns
// the per-pass statistics, including the final zero-gain pass that
// triggered termination; the running objective drops by each pass's gain.
func (l *Level) Polish(cfg Config) []PassStats {
	return newKernel(l, cfg).run()
}

func newKernel(l *Level, cfg Config) *kernel {
	sc := l.sc
	e := &kernel{cutModel: &l.m, lv: l, cfg: cfg, sc: sc}
	e.gk = sc.gk
	// Bucket key range: the largest possible |gain| is the max over movable
	// vertices of the total incident net weight; CLIP deltas can reach twice
	// that. Saturate beyond.
	var maxAdj int64 = 1
	for v, s := range e.incW {
		if e.movable[v] && 2*s > maxAdj {
			maxAdj = 2 * s
		}
	}
	const maxBucketSpan = 1 << 21
	if maxAdj > maxBucketSpan {
		maxAdj = maxBucketSpan
	}
	sc.sizeBuckets(e.h.NumVertices()*e.k, int32(maxAdj), e.k)
	e.nodes = &sc.nodes
	e.buckets = sc.buckets
	e.partOrder = sc.partOrder
	e.touchLog = sc.touchLog[:0]
	e.lastPos = sc.lastPos
	e.rows = sc.round.gain
	return e
}

// run executes passes until one gains nothing (or the pass budget runs out),
// keeping the level's running objective, and returns the pass statistics.
func (e *kernel) run() []PassStats {
	if e.nMovable == 0 {
		return nil
	}
	// The passes price into the table's rows, so it stops being the level's
	// exact table; an exact one seeds the first pass.
	e.tableRows = e.lv.table
	e.lv.table = false
	var passes []PassStats
	moveLog := e.sc.moveLog[:0]
	for pass := 0; pass < e.cfg.maxPasses(); pass++ {
		limit := e.nMovable
		if pass > 0 && e.cfg.MaxPassFraction > 0 && e.cfg.MaxPassFraction < 1 {
			limit = int(e.cfg.MaxPassFraction * float64(e.nMovable))
			if limit < 1 {
				limit = 1
			}
		}
		stats := e.runPass(limit, &moveLog)
		passes = append(passes, stats)
		e.lv.km1 -= stats.Gain
		if stats.Gain <= 0 {
			break
		}
	}
	e.sc.moveLog = moveLog         // keep any growth for the next run
	e.sc.touchLog = e.touchLog[:0] // keep any growth for the next run
	if e.cfg.Stats != nil {
		e.cfg.Stats.add(e.netsSkipped, e.pinScansAvoided, e.pinsScanned, e.bucketUpdatesSaved)
	}
	return passes
}

// runPass executes one FM pass (up to limit moves), rolls back to the best
// prefix, and returns its statistics.
func (e *kernel) runPass(limit int, moveLog *[]moveRec) PassStats {
	e.initPass()
	log := (*moveLog)[:0]
	var cum, bestCum int64
	bestIdx := 0
	for len(log) < limit {
		mid := e.selectMove()
		if mid < 0 {
			break
		}
		v := mid / int32(e.k)
		t := int(mid) % e.k
		g := e.gk[2*mid]
		from := e.a[v]
		e.applyMove(v, t)
		cum += g
		log = append(log, moveRec{v: v, from: from})
		if cum > bestCum {
			bestCum = cum
			bestIdx = len(log)
		}
	}
	for i := len(log) - 1; i >= bestIdx; i-- {
		e.undoMove(log[i].v, int(log[i].from))
	}
	*moveLog = log
	return PassStats{Moves: len(log), Kept: bestIdx, Gain: bestCum}
}

// initPass computes fresh gains for every legal (vertex, target) move — one
// gainRow per movable vertex, or the level's exact gain table on the run's
// first pass — and fills the per-part bucket structures,
// seeding vertices in ascending id order and targets in ascending part
// order. Under CLIP every move starts with bucket key zero, but the zero
// bucket is seeded in ascending actual-gain order so that the LIFO head —
// the pass's anchor move — is the highest-actual-gain move, per Dutt and
// Deng.
func (e *kernel) initPass() {
	e.nodes.clearMembership()
	for q := range e.buckets {
		e.buckets[q].resetHeads()
	}
	// Reset the per-pass net records to the immovable pins: every pass
	// starts with exactly the fixed terminals locked and every movable pin
	// unlocked. One sequential walk; the arrays are all dense.
	k := e.k
	S := e.nsStride
	for en := 0; en < e.h.NumNets(); en++ {
		st := en * S
		copy(e.passNet[st:st+k], e.fixedLocked[en*k:(en+1)*k])
		e.passNet[st+k] = e.movablePins[en]
		e.passNet[st+k+1] = e.fixedCover[en]
	}
	clip := e.cfg.Policy == CLIP
	order := e.sc.order[:0]
	for v := 0; v < e.h.NumVertices(); v++ {
		if !e.movable[v] {
			continue
		}
		e.locked[v] = false
		from := int(e.a[v])
		// The dense row doubles as CLIP's sort key: the seeding comparator
		// gathers half the memory span it would over the interleaved
		// gain/key pairs.
		if !e.tableRows {
			e.gainRow(int32(v), e.rows[v*k:v*k+k])
		}
		for _, t8 := range e.targets(int32(v)) {
			t := int(t8)
			if t == from {
				continue
			}
			mid := int32(v*k + t)
			e.gk[2*mid] = e.rows[mid]
			order = append(order, mid)
		}
	}
	e.tableRows = false
	if clip {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(e.rows[a], e.rows[b]) })
	}
	for _, mid := range order {
		if clip {
			e.gk[2*mid+1] = 0
		} else {
			e.gk[2*mid+1] = e.gk[2*mid]
		}
		e.buckets[e.a[mid/int32(k)]].insert(mid, e.gk[2*mid+1])
	}
	e.sc.order = order
}

// bucketScanCap bounds how many infeasible moves we examine per bucket
// before skipping to the next gain level; this keeps selection cheap when a
// part sits at its balance boundary.
const bucketScanCap = 8

// selectMove picks the highest-key feasible move, scanning parts in
// decreasing first-resource weight (ties by lower part index) so that ties
// favour the balance-improving direction. Returns -1 when no feasible move
// exists.
func (e *kernel) selectMove() int32 {
	k := e.k
	po := e.partOrder
	for q := 0; q < k; q++ {
		po[q] = int32(q)
		for i := q; i > 0 && e.weight[po[i]][0] > e.weight[po[i-1]][0]; i-- {
			po[i], po[i-1] = po[i-1], po[i]
		}
	}
	best := int32(-1)
	bestKey := int64(math.MinInt64)
	for _, q := range po {
		b := &e.buckets[q]
		if b.empty() {
			continue
		}
		idx := b.settleMax()
		for idx >= 0 {
			key := int64(idx - b.offset)
			if best >= 0 && key <= bestKey {
				break
			}
			misses := 0
			for mid := b.head[idx]; mid >= 0; mid = e.nodes.next(mid) {
				v := mid / int32(k)
				t := int(mid) % k
				if e.feasibleMove(v, t) {
					best, bestKey = mid, key
					break
				}
				if misses++; misses >= bucketScanCap {
					break
				}
			}
			idx--
		}
	}
	return best
}

// lockTrackMinPins is the smallest net size the locked-net counters track.
// Below it the skip can never pay for its own bookkeeping: the dedicated 2-
// and 3-pin paths already cost less than the two extra cache lines per
// (net, move) the counters touch, and a 2-pin net cannot become covered
// mid-pass at all (covering both endpoints' parts needs two locked pins, but
// the net is only ever processed through a still-unlocked pin).
const lockTrackMinPins = 4

// applyMove moves v to part t, locks it, and updates affected move gains via
// the k-way critical-net rules (which reduce to the classic FM rules when
// k = 2). It is net-state-aware:
//
//   - A net of >= lockTrackMinPins pins whose locked pins already cover every
//     part is skipped without scanning its pins: Φ(q) >= 1 for all q rules out
//     the "part joins/leaves the net" cases, and any Φ(q) == 1 pin is itself
//     locked, so the criticality cases would only reach locked pins. Only the
//     Φ and locked-pin counters are shifted.
//   - 2-pin and 3-pin nets take dedicated paths that branch directly on the
//     other pins' parts instead of running the generic Φ-switch twice.
//   - Gain deltas go through touch(), which defers the bucket repositioning;
//     each touched move id is repositioned exactly once at the end.
func (e *kernel) applyMove(v int32, t int) {
	h := e.h
	k := e.k
	from := int(e.a[v])
	e.locked[v] = true
	for x := 0; x < k; x++ {
		e.buckets[from].remove(v*int32(k) + int32(x))
	}
	e.touchLog = e.touchLog[:0]
	S := e.nsStride
	for _, en := range h.NetsOf(int(v)) {
		base := int(en) * k
		st := int(en) * S
		ns := e.passNet[st : st+S : st+S]
		// v locks now. If it was the net's last unlocked movable pin, every
		// gain delta would land on a locked or immovable pin — both out of
		// the buckets — so only Φ shifts. The skip decisions and the
		// locked-pin bookkeeping below all hit the net's one packed record,
		// so a skipped net costs the record's line plus the Φ row it shifts.
		un := ns[k] - 1
		ns[k] = un
		if un == 0 {
			preT := e.pinCount[base+t]
			e.pinCount[base+from]--
			e.pinCount[base+t]++
			e.netsSkipped++
			// Count the pin traversals the incremental scheme executes for
			// this net: one full scan per critical Φ case (t joining or nearly
			// joined pre-move, from left or nearly left post-move).
			sz := int64(h.NetSize(int(en)))
			if preT <= 1 {
				e.pinScansAvoided += sz
			}
			if e.pinCount[base+from] <= 1 {
				e.pinScansAvoided += sz
			}
			continue
		}
		size := h.NetSize(int(en))
		tracked := size >= lockTrackMinPins
		// Evaluate coverage before adding v's own lock contribution at t.
		if tracked && int(ns[k+1]) == k {
			preT := e.pinCount[base+t]
			e.pinCount[base+from]--
			e.pinCount[base+t]++
			ns[t]++ // cover already includes t
			e.netsSkipped++
			// Coverage bounds Φ(t) >= 1 and post-move Φ(from) >= 1, so only
			// the two "== 1" critical cases can charge traversals here.
			if preT == 1 {
				e.pinScansAvoided += int64(size)
			}
			if e.pinCount[base+from] == 1 {
				e.pinScansAvoided += int64(size)
			}
			continue
		}
		w := h.NetWeight(int(en))
		pins := h.Pins(int(en))
		preT := e.pinCount[base+t]
		switch size {
		case 2:
			u := pins[0]
			if u == v {
				u = pins[1]
			}
			uk := u * int32(k)
			switch int(e.a[u]) {
			case t:
				// v joins u: the net leaves the cut entirely.
				e.deltaAll(u, -w)
				e.pinCount[base+from]--
				e.pinCount[base+t]++
				e.touch(uk+int32(from), -w)
			case from:
				// v leaves u behind: the net enters the cut.
				e.touch(uk+int32(t), w)
				e.pinCount[base+from]--
				e.pinCount[base+t]++
				e.deltaAll(u, w)
			default:
				// Cut either way (k >= 3): only u's t/from moves shift.
				e.touch(uk+int32(t), w)
				e.pinCount[base+from]--
				e.pinCount[base+t]++
				e.touch(uk+int32(from), -w)
			}
		case 3:
			var u1, u2 int32
			switch v {
			case pins[0]:
				u1, u2 = pins[1], pins[2]
			case pins[1]:
				u1, u2 = pins[0], pins[2]
			default:
				u1, u2 = pins[0], pins[1]
			}
			switch e.pinCount[base+t] {
			case 0:
				e.touch(u1*int32(k)+int32(t), w)
				e.touch(u2*int32(k)+int32(t), w)
			case 1:
				if int(e.a[u1]) == t {
					e.deltaAll(u1, -w)
				} else if int(e.a[u2]) == t {
					e.deltaAll(u2, -w)
				}
			}
			e.pinCount[base+from]--
			e.pinCount[base+t]++
			switch e.pinCount[base+from] {
			case 0:
				e.touch(u1*int32(k)+int32(from), -w)
				e.touch(u2*int32(k)+int32(from), -w)
			case 1:
				if int(e.a[u1]) == from {
					e.deltaAll(u1, w)
				} else if int(e.a[u2]) == from {
					e.deltaAll(u2, w)
				}
			}
		default:
			// Generic Φ-switch. Before the move:
			switch e.pinCount[base+t] {
			case 0:
				// Part t joins the net: moves toward t stop adding a part.
				for _, u := range pins {
					e.touch(u*int32(k)+int32(t), w)
				}
			case 1:
				// The lone t pin stops being critical for leaving t.
				for _, u := range pins {
					if u != v && int(e.a[u]) == t {
						e.deltaAll(u, -w)
					}
				}
			}
			e.pinCount[base+from]--
			e.pinCount[base+t]++
			// After the move:
			switch e.pinCount[base+from] {
			case 0:
				// Part from left the net: moves toward from now add a part.
				for _, u := range pins {
					e.touch(u*int32(k)+int32(from), -w)
				}
			case 1:
				// The lone remaining from pin became critical.
				for _, u := range pins {
					if u != v && int(e.a[u]) == from {
						e.deltaAll(u, w)
					}
				}
			}
		}
		// Charge the executed traversals under the same accounting the skip
		// paths use for avoided ones (the 2-/3-pin paths are charged as if
		// they scanned, so the reduction counters never credit them).
		if preT <= 1 {
			e.pinsScanned += int64(size)
		}
		if e.pinCount[base+from] <= 1 {
			e.pinsScanned += int64(size)
		}
		// v is now a locked pin of this net in part t.
		if tracked {
			if ns[t] == 0 {
				ns[k+1]++
			}
			ns[t]++
		}
	}
	e.flushTouches()
	e.moveVertex(v, from, t)
}

// touch adjusts the gain of move id mid if it is live (present in a bucket)
// and logs it for deferred repositioning. Bucket membership subsumes the old
// per-delta guard: initPass inserts exactly the movable, mask-allowed,
// non-current-part moves, and the only mid-pass removals are lock-time, so
// inIdx >= 0 ⟺ "unlocked ∧ movable ∧ t ≠ a(u) ∧ mask allows t".
func (e *kernel) touch(mid int32, d int64) {
	if e.nodes.in(mid) < 0 {
		return
	}
	e.gk[2*mid] += d
	e.gk[2*mid+1] += d
	e.lastPos[mid] = int32(len(e.touchLog))
	e.touchLog = append(e.touchLog, mid)
}

// deltaAll adjusts the gains of every move of u (its from-side criticality
// changed), iterating u's CSR target row in ascending part order like the
// original 0..k mask loop.
func (e *kernel) deltaAll(u int32, d int64) {
	if e.locked[u] {
		return
	}
	base := u * int32(e.k)
	for _, t := range e.targets(u) {
		mid := base + int32(t)
		if e.nodes.in(mid) < 0 {
			continue
		}
		e.gk[2*mid] += d
		e.gk[2*mid+1] += d
		e.lastPos[mid] = int32(len(e.touchLog))
		e.touchLog = append(e.touchLog, mid)
	}
}

// flushTouches repositions every move id touched during the current
// applyMove exactly once. The incremental scheme repositions on every delta,
// and each repositioning re-inserts at the head of the (possibly same)
// bucket list, so the final relative order of the touched mids is the
// chronological order of their LAST touches — later-touched mids sit closer
// to the head. One forward pass over the log, repositioning each mid only at
// the position its lastPos stamp names, replays exactly that order and
// reproduces the incremental bucket state byte for byte, including for mids
// whose net delta is zero: their head-ward shift still changes LIFO
// tie-breaking.
func (e *kernel) flushTouches() {
	k := int32(e.k)
	dups := 0
	for i, mid := range e.touchLog {
		if e.lastPos[mid] != int32(i) {
			dups++
			continue
		}
		e.buckets[e.a[mid/k]].update(mid, e.gk[2*mid+1])
	}
	e.bucketUpdatesSaved += int64(dups)
}
