package fm_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// FuzzFMKernel runs the net-state-aware kernel against the frozen reference
// (reference_test.go) on byte-decoded fixed-vertex problems — random k, net
// sizes and weights, fixed/OR-region masks, multi-resource vertex weights,
// and a randomized objective (cut or km1) — and asserts identical final
// assignments, objectives, and pass statistics, plus that the reported
// Score matches an independent from-scratch partition.Cut / KMinus1
// recomputation. The reference predates the objective layer and always
// walks the (λ-1) trajectory, so comparing a km1 run against it also
// enforces the documented trajectory-independence invariant. Each input
// additionally drives the parallel round engine (Level.Rounds) at a
// randomized worker count and cross-checks it against workers=1 and
// workers=1 against the frozen round engine (parallel_reference_test.go):
// identical assignment and round/move/gain counts, feasible output, and a
// Gain that matches the from-scratch connectivity reduction. The same input
// finally drives the localized engine (LocalizedRefine) at a second randomized
// worker count and cross-checks it against workers=1 and workers=1 against
// the frozen pre-incremental localized engine (localized_reference_test.go):
// identical assignment and search/commit/move/gain counts, feasible output,
// and a committed-gain ledger that matches the from-scratch connectivity
// reduction. Last, the pairwise sweeps run on a level state followed by one
// more polish on it, against the frozen pairwise driver and the frozen
// kernel (reference_test.go), and the level's running objective and Score
// are checked against a from-scratch recount.
func FuzzFMKernel(f *testing.F) {
	f.Add([]byte{3, 20, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{2, 40, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(1))
	f.Add([]byte{5, 33, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2}, uint8(3))
	f.Add([]byte{4, 28, 2, 4, 6, 8, 1, 3, 5, 7}, uint8(9))
	f.Add([]byte{3, 50, 1, 1, 2, 2, 3, 3, 4, 4}, uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		k := 2 + int(fu8(data, 0))%4
		nv := 8 + int(fu8(data, 1))%56
		nr := 1 + int(fu8(data, 2))%2
		pos := 3

		b := hypergraph.NewBuilder(nr)
		for v := 0; v < nv; v++ {
			w := make([]int64, nr)
			for r := range w {
				w[r] = int64(1 + fu8(data, pos)%4)
				pos++
			}
			b.AddVertex(w...)
		}
		ne := 1 + int(fu8(data, pos))%(2*nv)
		pos++
		for e := 0; e < ne; e++ {
			sz := 2 + int(fu8(data, pos))%5
			pos++
			pins := make([]int, 0, sz)
			seen := make(map[int]bool, sz)
			for i := 0; i < sz; i++ {
				p := int(fu8(data, pos)) % nv
				pos++
				if !seen[p] {
					seen[p] = true
					pins = append(pins, p)
				}
			}
			if len(pins) < 2 {
				continue
			}
			b.AddWeightedNet(int64(1+fu8(data, pos)%3), pins...)
			pos++
		}
		h, err := b.Build()
		if err != nil || h.NumNets() == 0 {
			return
		}

		p := partition.NewFree(h, k, 0.1+float64(fu8(data, pos)%4)*0.1)
		pos++
		for v := 0; v < nv; v++ {
			switch fu8(data, pos) % 6 {
			case 0: // fixed terminal
				p.Fix(v, int(fu8(data, pos+1))%k)
			case 1: // OR region: two allowed parts
				a := int(fu8(data, pos+1)) % k
				c := int(fu8(data, pos+2)) % k
				if c != a {
					p.Restrict(v, partition.Single(a).With(c))
				}
			}
			pos += 3
		}

		// Deterministic initial assignment decoded from the data; bail if
		// infeasible (balance or masks violated).
		initial := make(partition.Assignment, nv)
		for v := 0; v < nv; v++ {
			q := int(fu8(data, pos)) % k
			if fp, ok := p.FixedPart(v); ok {
				q = fp
			} else if !p.MaskOf(v).Contains(q) {
				return
			}
			initial[v] = int8(q)
			pos++
		}
		if p.Feasible(initial) != nil {
			return
		}

		cfg := fm.Config{Policy: fm.LIFO}
		if mode&1 != 0 {
			cfg.Policy = fm.CLIP
		}
		if mode&2 != 0 {
			cfg.MaxPassFraction = 0.5
		}
		if mode&8 != 0 {
			cfg.Objective = fm.ObjectiveKM1
		}

		got, err := fm.Refine(p, initial, cfg)
		if err != nil {
			t.Fatalf("optimized: %v", err)
		}
		want, err := fm.KWayPartitionReference(p, initial, cfg)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if !reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("assignments diverge:\n got %v\nwant %v", got.Assignment, want.Assignment)
		}
		if got.Cut != want.Cut || got.KMinus1 != want.KMinus1 {
			t.Fatalf("objective diverged: cut %d/%d, want %d/%d", got.Cut, got.KMinus1, want.Cut, want.KMinus1)
		}
		if !reflect.DeepEqual(got.Passes, want.Passes) {
			t.Fatalf("pass stats diverge:\n got %+v\nwant %+v", got.Passes, want.Passes)
		}
		// The reported metrics must match a from-scratch recomputation on the
		// final assignment: Cut and KMinus1 by definition, and Score under
		// whichever objective the run was configured with.
		if c := partition.Cut(h, got.Assignment); got.Cut != c {
			t.Fatalf("Cut %d != recomputed %d", got.Cut, c)
		}
		if l := partition.KMinus1(h, got.Assignment); got.KMinus1 != l {
			t.Fatalf("KMinus1 %d != recomputed %d", got.KMinus1, l)
		}
		if got.Objective != cfg.Objective {
			t.Fatalf("Objective echoed %v, want %v", got.Objective, cfg.Objective)
		}
		if s := cfg.Objective.Score(h, got.Assignment); got.Score != s {
			t.Fatalf("objective %v: Score %d != recomputed %d", cfg.Objective, got.Score, s)
		}

		// Parallel round engine: a randomized worker count must reproduce the
		// workers=1 rounds bit for bit (same salt, decoded from the data),
		// workers=1 must match the frozen round engine, the result must be
		// feasible, and the reported Gain must equal the from-scratch
		// connectivity reduction.
		workers := 2 + int(mode>>4)%7
		salt := uint64(fu8(data, pos))<<8 | uint64(mode)
		pWant, pWantA, err := parallelRefine(p, initial, cfg, 1, salt, &fm.Scratch{})
		if err != nil {
			t.Fatalf("parallel workers=1: %v", err)
		}
		pGot, pGotA, err := parallelRefine(p, initial, cfg, workers, salt, &fm.Scratch{})
		if err != nil {
			t.Fatalf("parallel workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(pGotA, pWantA) {
			t.Fatalf("parallel workers=%d assignment diverges from workers=1:\n got %v\nwant %v",
				workers, pGotA, pWantA)
		}
		if pGot.Rounds != pWant.Rounds || pGot.Moves != pWant.Moves || pGot.Gain != pWant.Gain {
			t.Fatalf("parallel workers=%d stats %d/%d/%d diverge from workers=1 %d/%d/%d",
				workers, pGot.Rounds, pGot.Moves, pGot.Gain, pWant.Rounds, pWant.Moves, pWant.Gain)
		}
		// The workers=1 run must also match the frozen round engine
		// (parallel_reference_test.go) bit for bit.
		pRef, pRefA, err := fm.ParallelRefineReference(p, initial, cfg, 1, salt)
		if err != nil {
			t.Fatalf("parallel reference: %v", err)
		}
		if !reflect.DeepEqual(pWantA, pRefA) {
			t.Fatalf("parallel assignment diverges from the reference:\n got %v\nwant %v",
				pWantA, pRefA)
		}
		if pWant.Rounds != pRef.Rounds || pWant.Moves != pRef.Moves || pWant.Gain != pRef.Gain {
			t.Fatalf("parallel stats %d/%d/%d diverge from the reference %d/%d/%d",
				pWant.Rounds, pWant.Moves, pWant.Gain, pRef.Rounds, pRef.Moves, pRef.Gain)
		}
		if err := p.Feasible(pGotA); err != nil {
			t.Fatalf("parallel result infeasible: %v", err)
		}
		if d := partition.KMinus1(h, initial) - partition.KMinus1(h, pGotA); d != pGot.Gain {
			t.Fatalf("parallel Gain %d != measured connectivity reduction %d", pGot.Gain, d)
		}

		// Localized engine: a second randomized worker count must reproduce
		// the workers=1 searches bit for bit with the same salt, the result
		// must be feasible and never worse under either metric, and the
		// committed-gain ledger must equal the from-scratch connectivity
		// reduction.
		locWorkers := 2 + int(fu8(data, pos+1))%7
		lWant, err := fm.LocalizedRefine(p, initial, cfg, 1, salt)
		if err != nil {
			t.Fatalf("localized workers=1: %v", err)
		}
		lGot, err := fm.LocalizedRefine(p, initial, cfg, locWorkers, salt)
		if err != nil {
			t.Fatalf("localized workers=%d: %v", locWorkers, err)
		}
		if !reflect.DeepEqual(lGot.Assignment, lWant.Assignment) {
			t.Fatalf("localized workers=%d assignment diverges from workers=1:\n got %v\nwant %v",
				locWorkers, lGot.Assignment, lWant.Assignment)
		}
		if lGot.Rounds != lWant.Rounds || lGot.Searches != lWant.Searches ||
			lGot.Committed != lWant.Committed || lGot.Moves != lWant.Moves || lGot.Gain != lWant.Gain {
			t.Fatalf("localized workers=%d stats %d/%d/%d/%d/%d diverge from workers=1 %d/%d/%d/%d/%d",
				locWorkers, lGot.Rounds, lGot.Searches, lGot.Committed, lGot.Moves, lGot.Gain,
				lWant.Rounds, lWant.Searches, lWant.Committed, lWant.Moves, lWant.Gain)
		}
		// The workers=1 run must also match the frozen pre-incremental
		// engine (localized_reference_test.go) bit for bit.
		lRef, err := fm.LocalizedRefineReference(p, initial, cfg, 1, salt)
		if err != nil {
			t.Fatalf("localized reference: %v", err)
		}
		if !reflect.DeepEqual(lWant.Assignment, lRef.Assignment) {
			t.Fatalf("localized assignment diverges from the reference:\n got %v\nwant %v",
				lWant.Assignment, lRef.Assignment)
		}
		if lWant.Rounds != lRef.Rounds || lWant.Searches != lRef.Searches ||
			lWant.Committed != lRef.Committed || lWant.Moves != lRef.Moves || lWant.Gain != lRef.Gain {
			t.Fatalf("localized stats %d/%d/%d/%d/%d diverge from the reference %d/%d/%d/%d/%d",
				lWant.Rounds, lWant.Searches, lWant.Committed, lWant.Moves, lWant.Gain,
				lRef.Rounds, lRef.Searches, lRef.Committed, lRef.Moves, lRef.Gain)
		}
		if err := p.Feasible(lGot.Assignment); err != nil {
			t.Fatalf("localized result infeasible: %v", err)
		}
		km1Before, km1After := partition.KMinus1(h, initial), partition.KMinus1(h, lGot.Assignment)
		if km1After > km1Before {
			t.Fatalf("localized worsened km1: %d -> %d", km1Before, km1After)
		}
		if d := km1Before - km1After; d != lGot.Gain {
			t.Fatalf("localized Gain %d != measured connectivity reduction %d", lGot.Gain, d)
		}

		// Pairwise sweeps on the level state, then one more polish on the
		// same state: must match the frozen pairwise driver followed by the
		// frozen kernel (the polish only matches when the sweeps restored the
		// level's movability), with a running objective and Score that match
		// a from-scratch recount.
		sweeps := 1 + int(fu8(data, pos+2))%2
		lv, err := fm.NewLevel(p, initial, cfg, &fm.Scratch{})
		if err != nil {
			t.Fatalf("level: %v", err)
		}
		lv.Pairwise(cfg, sweeps)
		pwRef, err := fm.PairwiseReference(p, initial, cfg, sweeps)
		if err != nil {
			t.Fatalf("pairwise reference: %v", err)
		}
		if got := lv.Assignment(); !reflect.DeepEqual(got, pwRef) {
			t.Fatalf("pairwise assignment diverges from the reference:\n got %v\nwant %v", got, pwRef)
		}
		passes := lv.Polish(cfg)
		polRef, err := fm.KWayPartitionReference(p, pwRef, cfg)
		if err != nil {
			t.Fatalf("polish reference: %v", err)
		}
		final := lv.Assignment()
		if !reflect.DeepEqual(final, polRef.Assignment) || !reflect.DeepEqual(passes, polRef.Passes) {
			t.Fatalf("polish after pairwise diverges from the reference:\n got %v %+v\nwant %v %+v",
				final, passes, polRef.Assignment, polRef.Passes)
		}
		if l := partition.KMinus1(h, final); lv.KMinus1() != l {
			t.Fatalf("level running KMinus1 %d != recomputed %d", lv.KMinus1(), l)
		}
		if s := cfg.Objective.Score(h, final); lv.Score() != s {
			t.Fatalf("level Score %d != recomputed %d", lv.Score(), s)
		}
	})
}

// fu8 reads byte i of data, hashing the index when data is short so small
// inputs still produce varied problems.
func fu8(data []byte, i int) uint8 {
	if i < len(data) {
		return data[i]
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i)*0x9e3779b97f4a7c15)
	return buf[0]
}
