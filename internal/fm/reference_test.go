package fm

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// This file freezes the pre-optimization FM kernel — the exact engine the
// 20-row golden test was recorded against before the net-state-aware rewrite
// (locked-net short-circuiting, small-net fast paths, CSR target lists,
// batched bucket repositioning). It follows the contractReference pattern:
// the frozen code is retained verbatim, in a test-only file, so that
// differential tests (TestKernelMatchesReference, FuzzFMKernel,
// TestKernelPinScanReduction) can assert the optimized kernel is
// byte-identical on arbitrary fixed-vertex problems. export_test.go exposes
// the entry points to the external test package.

// refNodes is the pre-rewrite bucketNodes: three parallel arrays, one cache
// line each per element touched. The rewrite interleaved them; the reference
// keeps the old layout.
type refNodes struct {
	next  []int32 // next[e], -1 terminates
	prev  []int32 // prev[e], -1 when e is a head
	inIdx []int32 // bucket index e currently occupies, -1 when absent
}

func (n *refNodes) resize(numElems int) {
	n.next = growInt32(n.next, numElems)
	n.prev = growInt32(n.prev, numElems)
	n.inIdx = growInt32(n.inIdx, numElems)
}

func (n *refNodes) clearMembership() {
	for i := range n.inIdx {
		n.inIdx[i] = -1
	}
}

// refGainBuckets is the pre-rewrite gainBuckets over the parallel-array node
// store, frozen verbatim (modulo the node-store type).
type refGainBuckets struct {
	nodes  *refNodes
	offset int32
	head   []int32
	maxIdx int32
	count  int
}

func (b *refGainBuckets) attach(nodes *refNodes) { b.nodes = nodes }

func (b *refGainBuckets) resizeHeads(maxKey int32) {
	b.offset = maxKey
	b.head = growInt32(b.head, int(2*maxKey)+1)
	b.resetHeads()
}

func (b *refGainBuckets) clampKey(key int64) int32 {
	if key > int64(b.offset) {
		return b.offset
	}
	if key < -int64(b.offset) {
		return -b.offset
	}
	return int32(key)
}

func (b *refGainBuckets) insert(e int32, key int64) {
	idx := b.clampKey(key) + b.offset
	n := b.nodes
	n.inIdx[e] = idx
	n.prev[e] = -1
	n.next[e] = b.head[idx]
	if h := b.head[idx]; h >= 0 {
		n.prev[h] = e
	}
	b.head[idx] = e
	if idx > b.maxIdx {
		b.maxIdx = idx
	}
	b.count++
}

func (b *refGainBuckets) remove(e int32) {
	n := b.nodes
	idx := n.inIdx[e]
	if idx < 0 {
		return
	}
	if p := n.prev[e]; p >= 0 {
		n.next[p] = n.next[e]
	} else {
		b.head[idx] = n.next[e]
	}
	if nx := n.next[e]; nx >= 0 {
		n.prev[nx] = n.prev[e]
	}
	n.inIdx[e] = -1
	b.count--
}

func (b *refGainBuckets) settleMax() int32 {
	for b.maxIdx >= 0 && b.head[b.maxIdx] < 0 {
		b.maxIdx--
	}
	return b.maxIdx
}

func (b *refGainBuckets) empty() bool { return b.count == 0 }

func (b *refGainBuckets) resetHeads() {
	for i := range b.head {
		b.head[i] = -1
	}
	b.maxIdx = -1
	b.count = 0
}

// refScratch is the frozen kernel's reusable working state: the Scratch
// layout as it existed before the rewrite.
type refScratch struct {
	movable   []bool
	locked    []bool
	gain      []int64 // per move id v*k+t
	key       []int64
	pinCount  []int32   // per (net, part) at e*k+q
	weight    [][]int64 // [part][resource]
	nodes     refNodes
	buckets   []refGainBuckets // one per part, sharing nodes
	order     []int32          // move ids in pass-seeding order
	moveLog   []moveRec
	partOrder []int32 // parts in selection-priority order
}

var refScratchPool = sync.Pool{New: func() any { return &refScratch{} }}

func (s *refScratch) prepare(nv, ne, nr, k int) {
	s.movable = growBool(s.movable, nv)
	for i := range s.movable {
		s.movable[i] = false
	}
	s.locked = growBool(s.locked, nv)
	for i := range s.locked {
		s.locked[i] = false
	}
	s.gain = growInt64(s.gain, nv*k)
	s.key = growInt64(s.key, nv*k)
	s.pinCount = growInt32(s.pinCount, ne*k)
	for i := range s.pinCount {
		s.pinCount[i] = 0
	}
	if cap(s.weight) < k {
		s.weight = append(s.weight[:cap(s.weight)], make([][]int64, k-cap(s.weight))...)
	}
	s.weight = s.weight[:k]
	for q := 0; q < k; q++ {
		s.weight[q] = growInt64(s.weight[q], nr)
		for i := range s.weight[q] {
			s.weight[q][i] = 0
		}
	}
	if cap(s.order) < nv {
		s.order = make([]int32, 0, nv)
	}
	s.order = s.order[:0]
	if cap(s.moveLog) < nv {
		s.moveLog = make([]moveRec, 0, nv)
	}
	s.moveLog = s.moveLog[:0]
	s.partOrder = growInt32(s.partOrder, k)
}

func (s *refScratch) sizeBuckets(numMoves int, maxKey int32, k int) {
	s.nodes.resize(numMoves)
	s.nodes.clearMembership()
	if cap(s.buckets) < k {
		s.buckets = append(s.buckets[:cap(s.buckets)], make([]refGainBuckets, k-cap(s.buckets))...)
	}
	s.buckets = s.buckets[:k]
	for q := 0; q < k; q++ {
		s.buckets[q].attach(&s.nodes)
		s.buckets[q].resizeHeads(maxKey)
	}
}

// refKernel is the frozen policy layer + cut model: per-delta MaskOf checks,
// immediate bucket repositioning on every gain delta, and the generic
// Φ-switch for every net regardless of size or locked state.
type refKernel struct {
	p *partition.Problem
	h *hypergraph.Hypergraph
	k int

	a        partition.Assignment
	pinCount []int32
	weight   [][]int64
	movable  []bool
	locked   []bool
	nMovable int

	cfg Config
	sc  *refScratch

	gain      []int64
	key       []int64
	nodes     *refNodes
	buckets   []refGainBuckets
	partOrder []int32
}

// kernelResult is the frozen kernel's raw outcome, wrapped into Result by
// the frozen entry points.
type kernelResult struct {
	a       partition.Assignment
	obj     int64 // final (λ-1) connectivity; equals the cut when k = 2
	passes  []PassStats
	movable int
}

// bipartitionReference is the frozen pre-rewrite Bipartition.
func bipartitionReference(p *partition.Problem, initial partition.Assignment, cfg Config) (*Result, error) {
	if p.K != 2 {
		return nil, fmt.Errorf("fm: Bipartition requires k=2, got k=%d", p.K)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Feasible(initial); err != nil {
		return nil, fmt.Errorf("fm: initial assignment: %w", err)
	}
	if cfg.MaxPassFraction < 0 || cfg.MaxPassFraction > 1 {
		return nil, fmt.Errorf("fm: MaxPassFraction %v outside [0,1]", cfg.MaxPassFraction)
	}
	sc := refScratchPool.Get().(*refScratch)
	defer refScratchPool.Put(sc)
	e := newRefKernel(p, initial, cfg, sc)
	r := e.run()
	return &Result{Assignment: r.a, Cut: r.obj, Passes: r.passes, Movable: r.movable}, nil
}

// kwayPartitionReference is the frozen pre-rewrite KWayPartition.
func kwayPartitionReference(p *partition.Problem, initial partition.Assignment, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Feasible(initial); err != nil {
		return nil, fmt.Errorf("fm: initial assignment: %w", err)
	}
	if cfg.MaxPassFraction < 0 || cfg.MaxPassFraction > 1 {
		return nil, fmt.Errorf("fm: MaxPassFraction %v outside [0,1]", cfg.MaxPassFraction)
	}
	sc := refScratchPool.Get().(*refScratch)
	defer refScratchPool.Put(sc)
	e := newRefKernel(p, initial, cfg, sc)
	r := e.run()
	return &Result{
		Assignment: r.a,
		Cut:        partition.Cut(p.H, r.a),
		KMinus1:    r.obj,
		Passes:     r.passes,
		Movable:    r.movable,
	}, nil
}

func newRefKernel(p *partition.Problem, initial partition.Assignment, cfg Config, sc *refScratch) *refKernel {
	e := &refKernel{cfg: cfg, sc: sc}
	h := p.H
	k := p.K
	nv := h.NumVertices()
	ne := h.NumNets()
	nr := h.NumResources()
	sc.prepare(nv, ne, nr, k)
	e.p, e.h, e.k = p, h, k
	e.a = initial.Clone()
	e.pinCount = sc.pinCount
	e.weight = sc.weight
	e.movable = sc.movable
	e.locked = sc.locked
	e.nMovable = 0
	for en := 0; en < ne; en++ {
		for _, v := range h.Pins(en) {
			e.pinCount[en*k+int(e.a[v])]++
		}
	}
	all := partition.AllParts(k)
	for v := 0; v < nv; v++ {
		for r := 0; r < nr; r++ {
			e.weight[e.a[v]][r] += h.WeightIn(v, r)
		}
		if p.MaskOf(v).Intersect(all).Count() >= 2 {
			e.movable[v] = true
			e.nMovable++
		}
	}
	e.gain = sc.gain
	e.key = sc.key
	var maxAdj int64 = 1
	for v := 0; v < nv; v++ {
		if !e.movable[v] {
			continue
		}
		var s int64
		for _, en := range h.NetsOf(v) {
			s += h.NetWeight(int(en))
		}
		if 2*s > maxAdj {
			maxAdj = 2 * s
		}
	}
	const maxBucketSpan = 1 << 21
	if maxAdj > maxBucketSpan {
		maxAdj = maxBucketSpan
	}
	sc.sizeBuckets(nv*k, int32(maxAdj), k)
	e.nodes = &sc.nodes
	e.buckets = sc.buckets
	e.partOrder = sc.partOrder
	return e
}

func (e *refKernel) moveGain(v int32, t int) int64 {
	h := e.h
	k := e.k
	from := int(e.a[v])
	var g int64
	for _, en := range h.NetsOf(int(v)) {
		w := h.NetWeight(int(en))
		if e.pinCount[int(en)*k+from] == 1 {
			g += w
		}
		if e.pinCount[int(en)*k+t] == 0 {
			g -= w
		}
	}
	return g
}

func (e *refKernel) feasibleMove(v int32, t int) bool {
	from := int(e.a[v])
	for r := 0; r < e.h.NumResources(); r++ {
		w := e.h.WeightIn(int(v), r)
		if e.weight[from][r]-w < e.p.Balance.Min[from][r] {
			return false
		}
		if e.weight[t][r]+w > e.p.Balance.Max[t][r] {
			return false
		}
	}
	return true
}

func (e *refKernel) moveVertex(v int32, from, to int) {
	for r := 0; r < e.h.NumResources(); r++ {
		w := e.h.WeightIn(int(v), r)
		e.weight[from][r] -= w
		e.weight[to][r] += w
	}
	e.a[v] = int8(to)
}

func (e *refKernel) undoMove(v int32, f int) {
	k := e.k
	cur := int(e.a[v])
	for _, en := range e.h.NetsOf(int(v)) {
		base := int(en) * k
		e.pinCount[base+cur]--
		e.pinCount[base+f]++
	}
	e.moveVertex(v, cur, f)
}

func (e *refKernel) run() *kernelResult {
	res := &kernelResult{movable: e.nMovable}
	obj := partition.KMinus1(e.p.H, e.a)
	if e.nMovable == 0 {
		res.a = e.a
		res.obj = obj
		return res
	}
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
		res.passes = append(res.passes, stats)
		obj -= stats.Gain
		if stats.Gain <= 0 {
			break
		}
	}
	e.sc.moveLog = moveLog
	res.a = e.a
	res.obj = obj
	return res
}

func (e *refKernel) runPass(limit int, moveLog *[]moveRec) PassStats {
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
		g := e.gain[mid]
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

func (e *refKernel) initPass() {
	e.nodes.clearMembership()
	for q := range e.buckets {
		e.buckets[q].resetHeads()
	}
	k := e.k
	order := e.sc.order[:0]
	for v := 0; v < e.h.NumVertices(); v++ {
		if !e.movable[v] {
			continue
		}
		e.locked[v] = false
		mask := e.p.MaskOf(v)
		from := int(e.a[v])
		for t := 0; t < k; t++ {
			if t == from || !mask.Contains(t) {
				continue
			}
			mid := int32(v*k + t)
			e.gain[mid] = e.moveGain(int32(v), t)
			order = append(order, mid)
		}
	}
	if e.cfg.Policy == CLIP {
		sort.Slice(order, func(i, j int) bool { return e.gain[order[i]] < e.gain[order[j]] })
	}
	for _, mid := range order {
		if e.cfg.Policy == CLIP {
			e.key[mid] = 0
		} else {
			e.key[mid] = e.gain[mid]
		}
		e.buckets[e.a[mid/int32(k)]].insert(mid, e.key[mid])
	}
	e.sc.order = order
}

func (e *refKernel) selectMove() int32 {
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
			for mid := b.head[idx]; mid >= 0; mid = e.nodes.next[mid] {
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

func (e *refKernel) applyMove(v int32, t int) {
	h := e.h
	k := e.k
	from := int(e.a[v])
	e.locked[v] = true
	for x := 0; x < k; x++ {
		e.buckets[from].remove(v*int32(k) + int32(x))
	}
	for _, en := range h.NetsOf(int(v)) {
		w := h.NetWeight(int(en))
		pins := h.Pins(int(en))
		base := int(en) * k
		switch e.pinCount[base+t] {
		case 0:
			for _, u := range pins {
				e.deltaMove(u, t, w)
			}
		case 1:
			for _, u := range pins {
				if u != v && int(e.a[u]) == t {
					e.deltaAll(u, -w)
				}
			}
		}
		e.pinCount[base+from]--
		e.pinCount[base+t]++
		switch e.pinCount[base+from] {
		case 0:
			for _, u := range pins {
				e.deltaMove(u, from, -w)
			}
		case 1:
			for _, u := range pins {
				if u != v && int(e.a[u]) == from {
					e.deltaAll(u, w)
				}
			}
		}
	}
	e.moveVertex(v, from, t)
}

func (e *refKernel) deltaMove(u int32, t int, d int64) {
	if e.locked[u] || !e.movable[u] || int(e.a[u]) == t || !e.p.MaskOf(int(u)).Contains(t) {
		return
	}
	mid := u*int32(e.k) + int32(t)
	e.gain[mid] += d
	e.key[mid] += d
	refBucketUpdate(&e.buckets[e.a[u]], mid, e.key[mid])
}

// refBucketUpdate is the pre-rewrite gainBuckets.update, frozen alongside the
// kernel: an unconditional unlink/relink, without the identity fast path the
// optimized update gained (that fast path is part of the rewrite being
// measured, so the reference must not inherit it).
func refBucketUpdate(b *refGainBuckets, e int32, key int64) {
	b.remove(e)
	b.insert(e, key)
}

func (e *refKernel) deltaAll(u int32, d int64) {
	if e.locked[u] || !e.movable[u] {
		return
	}
	mask := e.p.MaskOf(int(u))
	for t := 0; t < e.k; t++ {
		if t == int(e.a[u]) || !mask.Contains(t) {
			continue
		}
		mid := u*int32(e.k) + int32(t)
		e.gain[mid] += d
		e.key[mid] += d
		refBucketUpdate(&e.buckets[e.a[u]], mid, e.key[mid])
	}
}

// pairwiseReference is the frozen pairwise sweep driver as it ran before it
// moved onto the per-level partition state: for each part pair (x, y) that
// shares a net, every vertex outside the pair is fixed at its part through a
// fresh restricted Problem, and the frozen kernel runs restricted to moves
// between x and y. Sweeps repeat (pairs in lexicographic order) until one
// fails to reduce the connectivity or maxSweeps is reached. It shares no code
// with Level.Pairwise: pair activity comes from the pin lists, movability
// from the restricted masks, and the sweep objective from partition.KMinus1.
func pairwiseReference(p *partition.Problem, a partition.Assignment, cfg Config, maxSweeps int) (partition.Assignment, error) {
	nv := p.H.NumVertices()
	prev := partition.KMinus1(p.H, a)
	active := make([]bool, p.K*p.K)
	allowed := make([]partition.Mask, nv)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		clear(active)
		for e := 0; e < p.H.NumNets(); e++ {
			var span partition.Mask
			for _, v := range p.H.Pins(e) {
				span = span.With(int(a[v]))
			}
			for x := 0; x < p.K; x++ {
				if !span.Contains(x) {
					continue
				}
				for y := x + 1; y < p.K; y++ {
					if span.Contains(y) {
						active[x*p.K+y] = true
					}
				}
			}
		}
		for x := 0; x < p.K; x++ {
			for y := x + 1; y < p.K; y++ {
				if !active[x*p.K+y] {
					continue
				}
				pair := partition.Single(x).With(y)
				for v := 0; v < nv; v++ {
					if q := int(a[v]); q == x || q == y {
						allowed[v] = p.MaskOf(v).Intersect(pair)
					} else {
						allowed[v] = partition.Single(q)
					}
				}
				restricted := &partition.Problem{H: p.H, K: p.K, Balance: p.Balance, Allowed: allowed}
				res, err := kwayPartitionReference(restricted, a, cfg)
				if err != nil {
					return nil, fmt.Errorf("pairwise reference (%d,%d): %w", x, y, err)
				}
				a = res.Assignment
			}
		}
		cur := partition.KMinus1(p.H, a)
		if cur >= prev {
			break
		}
		prev = cur
	}
	return a, nil
}
