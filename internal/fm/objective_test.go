package fm_test

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/fm"
	"repro/internal/partition"
)

func TestParseObjective(t *testing.T) {
	cases := []struct {
		in   string
		want fm.Objective
		ok   bool
	}{
		{"", fm.ObjectiveCut, true},
		{"cut", fm.ObjectiveCut, true},
		{"km1", fm.ObjectiveKM1, true},
		{"soed", 0, false},
		{"KM1", 0, false},
	}
	for _, c := range cases {
		got, err := fm.ParseObjective(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseObjective(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseObjective(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, o := range []fm.Objective{fm.ObjectiveCut, fm.ObjectiveKM1} {
		back, err := fm.ParseObjective(o.String())
		if err != nil || back != o {
			t.Errorf("round trip %v -> %q -> (%v, %v)", o, o.String(), back, err)
		}
	}
}

// TestKWayObjectiveTrajectoryIdentical pins the design invariant the docs
// promise: the kernel's gain algebra is the (λ-1) delta under every
// objective, so cut and km1 runs follow the same move trajectory and differ
// only in the Score they report. If a future model diverges the trajectory,
// this test is the tripwire that the bit-identity story needs re-auditing.
func TestKWayObjectiveTrajectoryIdentical(t *testing.T) {
	h := fourClusters(40, 2)
	for _, k := range []int{2, 3, 4} {
		p := partition.NewFree(h, k, 0.1)
		for _, policy := range []fm.Policy{fm.LIFO, fm.CLIP} {
			rng := rand.New(rand.NewPCG(77, uint64(k)))
			initial, err := partition.RandomFeasible(p, rng)
			if err != nil {
				t.Fatalf("RandomFeasible k=%d: %v", k, err)
			}
			cut, err := fm.Refine(p, initial, fm.Config{Policy: policy})
			if err != nil {
				t.Fatalf("cut run k=%d: %v", k, err)
			}
			km1, err := fm.Refine(p, initial, fm.Config{Policy: policy, Objective: fm.ObjectiveKM1})
			if err != nil {
				t.Fatalf("km1 run k=%d: %v", k, err)
			}
			if !reflect.DeepEqual(cut.Assignment, km1.Assignment) {
				t.Errorf("k=%d %v: assignments diverge between objectives", k, policy)
			}
			if !reflect.DeepEqual(cut.Passes, km1.Passes) {
				t.Errorf("k=%d %v: pass statistics diverge between objectives", k, policy)
			}
			if cut.Score != cut.Cut || cut.Score != partition.Cut(h, cut.Assignment) {
				t.Errorf("k=%d %v: cut run Score %d != Cut %d", k, policy, cut.Score, cut.Cut)
			}
			if km1.Score != km1.KMinus1 || km1.Score != partition.KMinus1(h, km1.Assignment) {
				t.Errorf("k=%d %v: km1 run Score %d != KMinus1 %d", k, policy, km1.Score, km1.KMinus1)
			}
			if cut.Objective != fm.ObjectiveCut || km1.Objective != fm.ObjectiveKM1 {
				t.Errorf("k=%d %v: objectives echoed wrong: %v / %v", k, policy, cut.Objective, km1.Objective)
			}
		}
	}
}

// TestBipartitionObjectiveScore checks the k = 2 degenerate case where cut
// and km1 are the same number: both objectives must report Score == Cut and
// the ledger must agree with the from-scratch recomputation.
func TestBipartitionObjectiveScore(t *testing.T) {
	h := twoClusters(40, 3)
	p := partition.NewBipartition(h, 0.1)
	for _, obj := range []fm.Objective{fm.ObjectiveCut, fm.ObjectiveKM1} {
		rng := rand.New(rand.NewPCG(5, 6))
		res, err := fm.RunFromRandom(p, fm.Config{Policy: fm.CLIP, Objective: obj}, rng)
		if err != nil {
			t.Fatalf("RunFromRandom(%v): %v", obj, err)
		}
		if res.Score != res.Cut {
			t.Errorf("%v: Score %d != Cut %d at k=2", obj, res.Score, res.Cut)
		}
		if res.Cut != partition.Cut(h, res.Assignment) {
			t.Errorf("%v: Cut %d != recomputed %d", obj, res.Cut, partition.Cut(h, res.Assignment))
		}
		if res.Objective != obj {
			t.Errorf("Objective echoed %v, want %v", res.Objective, obj)
		}
	}
}

// TestKWayKM1ScoreProperty drives the km1 model over randomized instances
// and cross-checks the reported Score against partition.KMinus1 by
// definition, alongside feasibility and the Score == KMinus1 ledger match.
func TestKWayKM1ScoreProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 97))
		h := fourClusters(8+int(seed%8), 1+int(seed%3))
		k := 2 + int(seed%4)
		p := partition.NewFree(h, k, 0.2)
		initial, err := partition.RandomFeasible(p, rng)
		if err != nil {
			return true // rare overconstrained draw
		}
		res, err := fm.Refine(p, initial, fm.Config{Policy: fm.CLIP, Objective: fm.ObjectiveKM1})
		if err != nil {
			return false
		}
		if p.Feasible(res.Assignment) != nil {
			return false
		}
		if res.Score != partition.KMinus1(h, res.Assignment) {
			return false
		}
		return res.Score == res.KMinus1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
