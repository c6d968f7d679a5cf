package fm

import (
	"sync"

	"repro/internal/partition"
)

// moveRec logs one applied move for best-prefix rollback: the vertex and the
// part it came from.
type moveRec struct {
	v    int32
	from int8
}

// Scratch holds the reusable working state of the FM kernel for any part
// count k: gain and key arrays (one slot per move id v*k+t), lock/movable
// flags, flattened per-net pin counts Φ(e, part), per-part weights, the k
// per-part gain-bucket structures over a shared node store, and the per-pass
// ordering and move-log slices. A Scratch can be reused across runs —
// including runs on different problems or different k; every array is
// (re)sized and cleared at the start of a run — so repeated FM starts stop
// paying the kernel's allocation cost.
//
// A Scratch must not be used by two runs concurrently. Results returned by
// the kernel never alias scratch memory, so a Scratch may be released (or
// pooled) as soon as the run returns.
type Scratch struct {
	movable   []bool
	locked    []bool
	gk        []int64   // interleaved gain/bucket-key pairs at 2*mid, 2*mid+1
	pinCount  []int32   // per (net, part) at e*k+q
	passNet   []int32   // packed per-pass net records, stride k+2 (see cutModel)
	weight    [][]int64 // [part][resource]
	nodes     bucketNodes
	buckets   []gainBuckets // one per part, sharing nodes
	order     []int32       // move ids in pass-seeding order
	moveLog   []moveRec
	partOrder []int32 // parts in selection-priority order

	// Net-state-aware kernel state.
	assign      partition.Assignment // working assignment (copied from initial)
	tgtOff      []int32              // CSR offsets into tgtList, one per vertex +1
	tgtList     []int8               // allowed target parts per movable vertex, ascending
	fixedLocked []int32              // immovable pins per (net, part) at e*k+q
	fixedCover  []int32              // parts with >= 1 immovable pin, per net
	movablePins []int32              // movable pins per net (constant per run)
	touchLog    []int32              // move ids whose gain changed during one applyMove
	lastPos     []int32              // per move id, its latest touchLog position (only entries stamped by the current applyMove are ever read)
	incW        []int64              // incident net weight per vertex

	// round is the level's round state; its gain table doubles as the
	// kernel's dense per-mid pass-start gains (see kernel.rows).
	round roundState
}

// scratchPool caches Scratch values for the entry points that take none
// (Refine, RunFromRandom, LocalizedRefine). With a bounded worker pool
// upstream, each worker effectively keeps one warm Scratch, so repeated
// starts on the same problem allocate almost nothing.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch leases a Scratch from the shared pool. Callers running many FM
// runs back to back (e.g. one multilevel descent: coarsest-level tries plus a
// refinement per level) hold one scratch across all of them by building each
// Level on it, then return it with PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a leased Scratch to the shared pool. The scratch must
// not be used after the call.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// prepare sizes the vertex/net/resource/part arrays for a run and clears the
// state the kernel accumulates into. The gain buckets are sized separately
// (by sizeBuckets) once the kernel knows the key span.
func (s *Scratch) prepare(nv, ne, nr, k int) {
	// movable, locked, the target CSR and the lock seeds are all rewritten
	// by cutModel.setMovable; only size them.
	s.movable = growBool(s.movable, nv)
	s.locked = growBool(s.locked, nv)
	s.incW = growInt64(s.incW, nv)
	// gain/key pairs are fully rewritten by initPass before being read; only
	// size.
	s.gk = growInt64(s.gk, 2*nv*k)
	s.pinCount = growInt32(s.pinCount, ne*k)
	for i := range s.pinCount {
		s.pinCount[i] = 0
	}
	// The packed per-pass records are overwritten from the fixed arrays at
	// every initPass, so only size them.
	s.passNet = growInt32(s.passNet, ne*(k+2))
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

	s.assign = growInt8(s.assign, nv)
	s.tgtOff = growInt32(s.tgtOff, nv+1)
	if cap(s.tgtList) < nv {
		s.tgtList = make([]int8, 0, nv*2)
	}
	s.tgtList = s.tgtList[:0]
	// The records' per-pass slots are overwritten from the lock seeds at
	// every initPass.
	s.fixedLocked = growInt32(s.fixedLocked, ne*k)
	s.fixedCover = growInt32(s.fixedCover, ne)
	s.movablePins = growInt32(s.movablePins, ne)
	if cap(s.touchLog) < 64 {
		s.touchLog = make([]int32, 0, 256)
	}
	s.touchLog = s.touchLog[:0]
	// lastPos never needs clearing: flushTouches only reads entries the
	// current applyMove just stamped, so stale positions are never consulted.
	// The gain table is built before it is read (Level.table says when it
	// holds exact rows). Neither needs clearing, only sizing.
	s.lastPos = growInt32(s.lastPos, nv*k)
	s.round.gain = growInt64(s.round.gain, nv*k)
}

// sizeBuckets (re)sizes the k per-part gain-bucket structures for numMoves
// move ids and the key span [-maxKey, maxKey], leaving them all empty.
func (s *Scratch) sizeBuckets(numMoves int, maxKey int32, k int) {
	s.nodes.resize(numMoves)
	s.nodes.clearMembership()
	if cap(s.buckets) < k {
		s.buckets = append(s.buckets[:cap(s.buckets)], make([]gainBuckets, k-cap(s.buckets))...)
	}
	s.buckets = s.buckets[:k]
	for q := 0; q < k; q++ {
		s.buckets[q].attach(&s.nodes)
		s.buckets[q].resizeHeads(maxKey)
	}
}

// growBool returns a length-n slice, reusing s's backing array when large
// enough. Contents are unspecified.
func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInt8[S ~[]int8](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// fillInt32 returns a length-n slice, reusing s's backing array when large
// enough, with every entry set to x.
func fillInt32(s []int32, n int, x int32) []int32 {
	s = growInt32(s, n)
	for i := range s {
		s[i] = x
	}
	return s
}
