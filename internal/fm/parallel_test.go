package fm_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// TestParallelRefineWorkerInvariance is the determinism contract of the
// synchronous-round engine at the fm level: for a fixed salt, every worker
// count — 1 included — must commit the identical move sequence and return the
// identical assignment, on random fixed-vertex problems across k, weights and
// masks. Run under -race in CI, which also exercises the concurrent
// gain-table build, propose and stale-row refresh phases.
func TestParallelRefineWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9a11e1, 1))
	trials := 0
	for trials < 30 {
		p, initial, ok := diffProblem(rng)
		if !ok {
			continue
		}
		trials++
		salt := rng.Uint64()
		cfg := fm.Config{}
		if trials%2 == 0 {
			cfg.Objective = fm.ObjectiveKM1
		}
		want, wantA, err := parallelRefine(p, initial, cfg, 1, salt, &fm.Scratch{})
		if err != nil {
			t.Fatalf("trial %d: workers=1: %v", trials, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, gotA, err := parallelRefine(p, initial, cfg, workers, salt, &fm.Scratch{})
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trials, workers, err)
			}
			if !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("trial %d: workers=%d assignment diverges from workers=1", trials, workers)
			}
			if got.Rounds != want.Rounds || got.Moves != want.Moves || got.Gain != want.Gain {
				t.Fatalf("trial %d: workers=%d rounds/moves/gain %d/%d/%d, workers=1 %d/%d/%d",
					trials, workers, got.Rounds, got.Moves, got.Gain, want.Rounds, want.Moves, want.Gain)
			}
		}
	}
}

// TestParallelRefineImproves checks the engine's accounting and invariants on
// random problems: the result is feasible, never worse than the input under
// (λ-1) connectivity, Gain equals the measured connectivity reduction, and
// the input assignment is untouched.
func TestParallelRefineImproves(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9a11e1, 2))
	trials := 0
	improved := 0
	for trials < 40 {
		p, initial, ok := diffProblem(rng)
		if !ok {
			continue
		}
		trials++
		before := initial.Clone()
		km1In := partition.KMinus1(p.H, initial)
		res, resA, err := parallelRefine(p, initial, fm.Config{}, 3, rng.Uint64(), &fm.Scratch{})
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		if !reflect.DeepEqual(initial, before) {
			t.Fatalf("trial %d: input assignment was modified", trials)
		}
		if err := p.Feasible(resA); err != nil {
			t.Fatalf("trial %d: infeasible result: %v", trials, err)
		}
		km1Out := partition.KMinus1(p.H, resA)
		if km1Out > km1In {
			t.Fatalf("trial %d: connectivity worsened: %d -> %d", trials, km1In, km1Out)
		}
		if got := km1In - km1Out; got != res.Gain {
			t.Fatalf("trial %d: Gain %d, measured reduction %d", trials, res.Gain, got)
		}
		if res.Gain > 0 {
			improved++
		}
	}
	if improved == 0 {
		t.Error("no trial improved its random initial assignment (engine inert?)")
	}
}

// TestParallelRefineAllFixed: with every vertex a fixed terminal the engine
// must return the input unchanged in a single empty round.
func TestParallelRefineAllFixed(t *testing.T) {
	b := hypergraph.NewBuilder(1)
	for v := 0; v < 8; v++ {
		b.AddVertex(1)
	}
	for e := 0; e < 6; e++ {
		b.AddNet(e, (e+1)%8, (e+3)%8)
	}
	p := partition.NewBipartition(mustBuild(b), 0.5)
	for v := 0; v < 8; v++ {
		p.Fix(v, v%2)
	}
	initial, err := partition.RandomFeasible(p, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	res, resA, err := parallelRefine(p, initial, fm.Config{}, 4, 99, &fm.Scratch{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 || res.Gain != 0 || res.Movable != 0 {
		t.Errorf("all-fixed problem: moves=%d gain=%d movable=%d, want zeros", res.Moves, res.Gain, res.Movable)
	}
	if !reflect.DeepEqual(resA, initial) {
		t.Error("all-fixed problem: assignment changed")
	}
}

// TestParallelRefineThenPolish mirrors the multilevel composition — rounds
// first, serial FM polish after, on one leased scratch — and checks the
// polish never undoes the rounds' progress (the combined result is at least
// as good as either stage alone under the run objective).
func TestParallelRefineThenPolish(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9a11e1, 3))
	sc := &fm.Scratch{}
	trials := 0
	for trials < 20 {
		p, initial, ok := diffProblem(rng)
		if !ok {
			continue
		}
		trials++
		salt := rng.Uint64()
		_, rounds, err := parallelRefine(p, initial, fm.Config{}, 4, salt, sc)
		if err != nil {
			t.Fatalf("trial %d: rounds: %v", trials, err)
		}
		polished, err := refineWith(p, rounds, fm.Config{Policy: fm.CLIP}, sc)
		if err != nil {
			t.Fatalf("trial %d: polish: %v", trials, err)
		}
		if err := p.Feasible(polished.Assignment); err != nil {
			t.Fatalf("trial %d: polish result infeasible: %v", trials, err)
		}
		if after, mid := partition.KMinus1(p.H, polished.Assignment), partition.KMinus1(p.H, rounds); after > mid {
			t.Fatalf("trial %d: polish worsened connectivity %d -> %d", trials, mid, after)
		}
	}
}

// BenchmarkParallelRefineRounds is a micro-benchmark of the round engine in
// isolation (the end-to-end refinement-phase benchmark lives at the repo
// root); it keeps a representative problem shape resident for profiling.
func BenchmarkParallelRefineRounds(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 9))
	nv := 4000
	hb := hypergraph.NewBuilder(1)
	for v := 0; v < nv; v++ {
		hb.AddVertex(int64(1 + rng.IntN(3)))
	}
	for e := 0; e < 2*nv; e++ {
		sz := 2 + rng.IntN(5)
		hb.AddNet(rng.Perm(nv)[:sz]...)
	}
	p := partition.NewBipartition(mustBuild(hb), 0.1)
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		b.Fatal(err)
	}
	sc := &fm.Scratch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := parallelRefine(p, initial, fm.Config{}, 4, 42, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParallelRefineMatchesReference differentially tests the round engine
// against the frozen pre-gain-table oracle (parallel_reference_test.go): the
// shared round-start gain table and its stale-row refresh are bookkeeping
// only, so every trial must return the identical assignment and identical
// round/move/gain counters for each objective and worker count.
func TestParallelRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9a11e1, 5))
	trials := 0
	for trials < 40 {
		p, initial, ok := locDiffProblem(rng)
		if !ok {
			continue
		}
		trials++
		salt := rng.Uint64()
		cfg := fm.Config{}
		if trials%2 == 0 {
			cfg.Objective = fm.ObjectiveKM1
		}
		want, wantA, err := fm.ParallelRefineReference(p, initial, cfg, 1, salt)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trials, err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, gotA, err := parallelRefine(p, initial, cfg, workers, salt, &fm.Scratch{})
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trials, workers, err)
			}
			if !reflect.DeepEqual(gotA, wantA) {
				t.Fatalf("trial %d (k=%d, nv=%d): workers=%d assignment diverges from the reference",
					trials, p.K, p.H.NumVertices(), workers)
			}
			if got.Rounds != want.Rounds || got.Moves != want.Moves || got.Gain != want.Gain {
				t.Fatalf("trial %d: workers=%d rounds/moves/gain %d/%d/%d, reference %d/%d/%d",
					trials, workers, got.Rounds, got.Moves, got.Gain, want.Rounds, want.Moves, want.Gain)
			}
		}
	}
}

// TestRoundStateChunkedRefresh runs both parallel stages on instances large
// enough that a commit phase stales more rows than the serial-refresh
// cutoff, so the stale-row refresh runs over chunks on several workers (and
// under -race in CI), and requires each stage to match its frozen oracle.
func TestRoundStateChunkedRefresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x9a11e1, 6))
	for trial := 0; trial < 3; trial++ {
		nv := 800 + rng.IntN(400)
		k := 2 + rng.IntN(5)
		b := hypergraph.NewBuilder(1)
		for v := 0; v < nv; v++ {
			b.AddVertex(int64(1 + rng.IntN(3)))
		}
		for e := 0; e < 2*nv; e++ {
			b.AddWeightedNet(int64(1+rng.IntN(3)), rng.Perm(nv)[:2+rng.IntN(5)]...)
		}
		p := partition.NewFree(mustBuild(b), k, 0.1)
		for v := 0; v < nv; v += 7 {
			p.Fix(v, rng.IntN(k))
		}
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		salt := rng.Uint64()
		pWant, pWantA, err := fm.ParallelRefineReference(p, initial, fm.Config{}, 1, salt)
		if err != nil {
			t.Fatal(err)
		}
		pGot, pGotA, err := parallelRefine(p, initial, fm.Config{}, 4, salt, &fm.Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pGot, pWant) || !reflect.DeepEqual(pGotA, pWantA) {
			t.Fatalf("trial %d (k=%d, nv=%d): round stage diverges from its reference", trial, k, nv)
		}
		lWant, err := fm.LocalizedRefineReference(p, initial, fm.Config{}, 1, salt)
		if err != nil {
			t.Fatal(err)
		}
		lGot, err := fm.LocalizedRefine(p, initial, fm.Config{}, 4, salt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lGot, lWant) {
			t.Fatalf("trial %d (k=%d, nv=%d): localized stage diverges from its reference", trial, k, nv)
		}
	}
}
