package multilevel_test

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/multilevel"
	"repro/internal/partition"
)

// TestMultistartCtxMatchesUncancelled: with a context that never fires, the
// context-aware drivers are bit-identical to their plain counterparts, for
// both nil and Background contexts and across worker counts.
func TestMultistartCtxMatchesUncancelled(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0.3)
	cfg := multilevel.Config{}
	want, err := solve(p, cfg, multilevel.Spec{Starts: 6}, rand.New(rand.NewPCG(7, 7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ctx := range map[string]context.Context{"nil": nil, "background": context.Background()} {
		for _, workers := range []int{1, 4} {
			c := cfg
			c.Workers = workers
			got, err := multilevel.Solve(ctx, p, c, multilevel.Spec{Starts: 6}, rand.New(rand.NewPCG(7, 7)))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "ctx driver", want, got)
			if got.Truncated {
				t.Error("uncancelled run reported Truncated")
			}
		}
	}
}

// TestMultistartCtxPreCancelled: a context that is already done before any
// start completes yields an error wrapping ctx.Err(), never a partial result.
func TestMultistartCtxPreCancelled(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := multilevel.Config{Workers: workers}
		if _, err := multilevel.Solve(ctx, p, cfg, multilevel.Spec{Starts: 4}, rand.New(rand.NewPCG(1, 1))); err == nil {
			t.Errorf("workers=%d: pre-cancelled context returned a result", workers)
		}
	}
}

// TestMultistartCtxTruncatedFeasible is the service's core guarantee: a run
// cut short mid-flight either errors with the context cause (nothing
// finished) or returns a feasible partition marked Truncated whose cut
// matches the best of the completed prefix. We cancel from a watcher
// goroutine shortly after the run begins so some starts usually finish first.
func TestMultistartCtxTruncatedFeasible(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	cfg := multilevel.Config{Workers: 2}
	res, err := multilevel.Solve(ctx, p, cfg, multilevel.Spec{Starts: 64}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		if ctx.Err() == nil {
			t.Fatalf("run failed for a non-cancellation reason: %v", err)
		}
		t.Logf("cancelled before any start completed (allowed): %v", err)
		return
	}
	if ferr := p.Feasible(res.Assignment); ferr != nil {
		t.Fatalf("truncated result infeasible: %v", ferr)
	}
	if res.Starts > 64 {
		t.Errorf("completed %d of 64 starts", res.Starts)
	}
	if res.Starts < 64 && !res.Truncated {
		t.Errorf("completed %d < 64 starts but Truncated is false", res.Starts)
	}
	// The truncated answer must equal an honest serial run over the same
	// prefix: best of starts [0, res.Starts).
	want, err := solve(p, multilevel.Config{}, multilevel.Spec{Starts: res.Starts}, rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut != want.Cut {
		t.Errorf("truncated cut %d != best-of-prefix cut %d (prefix %d)", res.Cut, want.Cut, res.Starts)
	}
}

// TestBuildHierarchiesPure: BuildHierarchies is a pure function of its
// arguments — two builds with the same seed descend to identical results —
// and rejects k != 2.
func TestBuildHierarchiesPure(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0.2)
	cfg := multilevel.Config{}
	a, err := multilevel.BuildHierarchies(context.Background(), p, cfg, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := multilevel.BuildHierarchies(nil, p, cfg, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := multilevel.MultistartOnHierarchies(context.Background(), a, cfg, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := multilevel.MultistartOnHierarchies(nil, b, cfg, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rebuilt hierarchies", ra, rb)

	kp4 := partition.NewFree(p.H, 4, 0.02)
	if _, err := multilevel.BuildHierarchies(context.Background(), kp4, cfg, 1, 1); err == nil {
		t.Error("BuildHierarchies accepted k=4")
	}
}

// TestMultistartOnHierarchiesDeterministic: the warm path is worker-count
// independent and its results are feasible; rebinding refinement config via
// the shared hierarchies (different policy) still descends fine.
func TestMultistartOnHierarchiesDeterministic(t *testing.T) {
	p := presetProblem(t, "IBM01S", 0.05, 0.3)
	hiers, err := multilevel.BuildHierarchies(context.Background(), p, multilevel.Config{}, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var want *multilevel.Result
	for _, workers := range []int{1, 2, 8} {
		cfg := multilevel.Config{Workers: workers}
		got, err := multilevel.MultistartOnHierarchies(context.Background(), hiers, cfg, 8, 99)
		if err != nil {
			t.Fatal(err)
		}
		if ferr := p.Feasible(got.Assignment); ferr != nil {
			t.Fatalf("workers=%d: infeasible: %v", workers, ferr)
		}
		if want == nil {
			want = got
		} else {
			sameResult(t, "warm path workers", want, got)
		}
	}
	// A different refinement config on the same hierarchies must also work
	// (withRefinement rebinding) and stay deterministic.
	cut := multilevel.Config{MaxPassFraction: 0.25}
	r1, err := multilevel.MultistartOnHierarchies(context.Background(), hiers, cut, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := multilevel.MultistartOnHierarchies(context.Background(), hiers, cut, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rebound refinement", r1, r2)
}
