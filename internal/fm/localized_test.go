package fm_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/fm"
	"repro/internal/hypergraph"
	"repro/internal/partition"
)

// TestLocalizedRefineWorkerInvariance is the determinism contract of the
// localized engine at the fm level: for a fixed salt, every worker count — 1
// included — must run the identical searches, commit the identical prefixes
// and return the identical assignment, on random fixed-vertex problems across
// k, weights and masks. Run under -race in CI, which also exercises the
// concurrent boundary scans and the shared search queue.
func TestLocalizedRefineWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x10ca11, 1))
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
		want, err := fm.LocalizedRefine(p, initial, cfg, 1, salt)
		if err != nil {
			t.Fatalf("trial %d: workers=1: %v", trials, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := fm.LocalizedRefine(p, initial, cfg, workers, salt)
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trials, workers, err)
			}
			if !reflect.DeepEqual(got.Assignment, want.Assignment) {
				t.Fatalf("trial %d: workers=%d assignment diverges from workers=1", trials, workers)
			}
			if got.Rounds != want.Rounds || got.Searches != want.Searches ||
				got.Committed != want.Committed || got.Moves != want.Moves || got.Gain != want.Gain {
				t.Fatalf("trial %d: workers=%d rounds/searches/committed/moves/gain %d/%d/%d/%d/%d, workers=1 %d/%d/%d/%d/%d",
					trials, workers, got.Rounds, got.Searches, got.Committed, got.Moves, got.Gain,
					want.Rounds, want.Searches, want.Committed, want.Moves, want.Gain)
			}
		}
	}
}

// TestLocalizedRefineImproves checks the engine's accounting and invariants
// on random problems: the result is feasible, never worse than the input
// under (λ-1) connectivity, Gain equals the measured connectivity reduction
// (the committed-gain ledger is authoritative), and the input assignment is
// untouched.
func TestLocalizedRefineImproves(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x10ca11, 2))
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
		res, err := fm.LocalizedRefine(p, initial, fm.Config{}, 3, rng.Uint64())
		if err != nil {
			t.Fatalf("trial %d: %v", trials, err)
		}
		if !reflect.DeepEqual(initial, before) {
			t.Fatalf("trial %d: input assignment was modified", trials)
		}
		if err := p.Feasible(res.Assignment); err != nil {
			t.Fatalf("trial %d: infeasible result: %v", trials, err)
		}
		km1Out := partition.KMinus1(p.H, res.Assignment)
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

// TestLocalizedRefineAllFixed: with every vertex a fixed terminal the engine
// must return the input unchanged — no seeds, no searches, no moves.
func TestLocalizedRefineAllFixed(t *testing.T) {
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
	res, err := fm.LocalizedRefine(p, initial, fm.Config{}, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Searches != 0 || res.Moves != 0 || res.Gain != 0 || res.Movable != 0 {
		t.Errorf("all-fixed problem: searches=%d moves=%d gain=%d movable=%d, want zeros",
			res.Searches, res.Moves, res.Gain, res.Movable)
	}
	if !reflect.DeepEqual(res.Assignment, initial) {
		t.Error("all-fixed problem: assignment changed")
	}
}

// TestLocalizedRefineThenPolish mirrors the multilevel composition — rounds,
// localized searches, then a one-pass serial tail on one leased scratch — and
// checks the tail never undoes the localized stage's progress.
func TestLocalizedRefineThenPolish(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x10ca11, 3))
	sc := &fm.Scratch{}
	trials := 0
	for trials < 20 {
		p, initial, ok := diffProblem(rng)
		if !ok {
			continue
		}
		trials++
		salt := rng.Uint64()
		loc, err := localizedRefine(p, initial, fm.Config{}, 4, salt, sc)
		if err != nil {
			t.Fatalf("trial %d: localized: %v", trials, err)
		}
		polished, err := refineWith(p, loc.Assignment, fm.Config{Policy: fm.CLIP, MaxPasses: 1}, sc)
		if err != nil {
			t.Fatalf("trial %d: tail: %v", trials, err)
		}
		if err := p.Feasible(polished.Assignment); err != nil {
			t.Fatalf("trial %d: tail result infeasible: %v", trials, err)
		}
		if after, mid := partition.KMinus1(p.H, polished.Assignment), partition.KMinus1(p.H, loc.Assignment); after > mid {
			t.Fatalf("trial %d: tail worsened connectivity %d -> %d", trials, mid, after)
		}
	}
}

// TestLocalizedRefineBeatsRounds quantifies why the localized stage exists:
// on random problems it must, in aggregate, reach at least the connectivity
// the positive-only round stage reaches from the same inputs — localized
// searches can walk through negative prefixes the rounds cannot.
func TestLocalizedRefineBeatsRounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x10ca11, 4))
	trials := 0
	var roundsTotal, locTotal int64
	for trials < 30 {
		p, initial, ok := diffProblem(rng)
		if !ok {
			continue
		}
		trials++
		salt := rng.Uint64()
		_, rounds, err := parallelRefine(p, initial, fm.Config{}, 2, salt, &fm.Scratch{})
		if err != nil {
			t.Fatalf("trial %d: rounds: %v", trials, err)
		}
		lres, err := fm.LocalizedRefine(p, initial, fm.Config{}, 2, salt)
		if err != nil {
			t.Fatalf("trial %d: localized: %v", trials, err)
		}
		roundsTotal += partition.KMinus1(p.H, rounds)
		locTotal += partition.KMinus1(p.H, lres.Assignment)
	}
	if locTotal > roundsTotal {
		t.Errorf("localized aggregate km1 %d worse than round stage %d", locTotal, roundsTotal)
	}
}

// locDiffProblem draws a random fixed-vertex problem for the localized
// differential test: k in 2..8, 1-2 resources, fixed terminals and two-part
// OR regions, and instances large enough (up to 200 vertices, nets up to 8
// pins) that searches fill their locMaxDistinct candidate budget and
// balance bounds bind mid-search.
func locDiffProblem(rng *rand.Rand) (*partition.Problem, partition.Assignment, bool) {
	nv := 30 + rng.IntN(171)
	nr := 1 + rng.IntN(2)
	k := 2 + rng.IntN(7)
	b := hypergraph.NewBuilder(nr)
	for v := 0; v < nv; v++ {
		w := make([]int64, nr)
		for r := range w {
			w[r] = int64(1 + rng.IntN(4))
		}
		b.AddVertex(w...)
	}
	ne := nv + rng.IntN(2*nv)
	for e := 0; e < ne; e++ {
		sz := min(2+rng.IntN(7), nv)
		b.AddWeightedNet(int64(1+rng.IntN(3)), rng.Perm(nv)[:sz]...)
	}
	p := partition.NewFree(mustBuild(b), k, 0.05+0.35*rng.Float64())
	for v := 0; v < nv; v++ {
		switch rng.IntN(6) {
		case 0: // fixed terminal
			p.Fix(v, rng.IntN(k))
		case 1: // OR region spanning two parts
			if k > 2 {
				a := rng.IntN(k)
				c := (a + 1 + rng.IntN(k-1)) % k
				p.Restrict(v, partition.Single(a).With(c))
			}
		}
	}
	initial, err := partition.RandomFeasible(p, rng)
	if err != nil {
		return nil, nil, false
	}
	return p, initial, true
}

// TestLocalizedRefineMatchesReference differentially tests the localized
// engine against the frozen pre-incremental oracle
// (localized_reference_test.go): the round gain table and the per-search
// copy-on-touch vectors are bookkeeping only, so every trial must return the
// identical assignment and identical round/search/commit/move/gain counters
// for each objective and worker count.
func TestLocalizedRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x10ca11, 5))
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
		want, err := fm.LocalizedRefineReference(p, initial, cfg, 1, salt)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trials, err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := fm.LocalizedRefine(p, initial, cfg, workers, salt)
			if err != nil {
				t.Fatalf("trial %d: workers=%d: %v", trials, workers, err)
			}
			if !reflect.DeepEqual(got.Assignment, want.Assignment) {
				t.Fatalf("trial %d (k=%d, nv=%d): workers=%d assignment diverges from the reference",
					trials, p.K, p.H.NumVertices(), workers)
			}
			if got.Rounds != want.Rounds || got.Searches != want.Searches ||
				got.Committed != want.Committed || got.Moves != want.Moves || got.Gain != want.Gain {
				t.Fatalf("trial %d: workers=%d rounds/searches/committed/moves/gain %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
					trials, workers, got.Rounds, got.Searches, got.Committed, got.Moves, got.Gain,
					want.Rounds, want.Searches, want.Committed, want.Moves, want.Gain)
			}
		}
	}
}
