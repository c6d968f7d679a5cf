package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPartitionRefineWorkersField: the refine_workers request field is
// accepted, clamped to GOMAXPROCS, echoed back as the effective value, and —
// the determinism contract — every count >= 1 returns the identical answer
// while still hitting the hierarchy cache (the field is not in the key).
func TestPartitionRefineWorkersField(t *testing.T) {
	s := New(Config{})
	_, base := post(t, s.Handler(), presetBody(""))
	if base == nil {
		t.Fatal("baseline request failed")
	}
	if base.RefineWorkers != 0 {
		t.Errorf("default refine_workers = %d, want the server default 0 (stage off)", base.RefineWorkers)
	}

	recA, respA := post(t, s.Handler(), presetBody(`"refine_workers":2`))
	if respA == nil {
		t.Fatalf("status %d: %s", recA.Code, recA.Body.String())
	}
	recB, respB := post(t, s.Handler(), presetBody(`"refine_workers":4`))
	if respB == nil {
		t.Fatalf("status %d: %s", recB.Code, recB.Body.String())
	}
	wantA, wantB := 2, 4
	if max := runtime.GOMAXPROCS(0); wantA > max {
		wantA = max
	}
	if max := runtime.GOMAXPROCS(0); wantB > max {
		wantB = max
	}
	if respA.RefineWorkers != wantA || respB.RefineWorkers != wantB {
		t.Errorf("effective refine_workers = %d/%d, want %d/%d (clamped to GOMAXPROCS %d)",
			respA.RefineWorkers, respB.RefineWorkers, wantA, wantB, runtime.GOMAXPROCS(0))
	}
	// Worker-count invariance: 2 and 4 workers must agree bit for bit.
	if respA.Cut != respB.Cut || respA.KMinus1 != respB.KMinus1 {
		t.Errorf("refine_workers changed the answer: cut %d/%d, km1 %d/%d",
			respA.Cut, respB.Cut, respA.KMinus1, respB.KMinus1)
	}
	for v := range respA.Assignment {
		if respA.Assignment[v] != respB.Assignment[v] {
			t.Fatalf("refine_workers changed the assignment at vertex %d", v)
		}
	}
	// refine_workers is excluded from the cache key: these requests must
	// reuse the hierarchies built by the (stage-off) baseline request.
	if respA.Cache != "hit" || respB.Cache != "hit" {
		t.Errorf("refine_workers requests cache=%q/%q, want hit (field must not join the cache key)",
			respA.Cache, respB.Cache)
	}
}

// TestPartitionRefineWorkersServerDefault: the -refine-workers server flag
// supplies the default when the request omits the field, after the same
// GOMAXPROCS clamp.
func TestPartitionRefineWorkersServerDefault(t *testing.T) {
	s := New(Config{RefineWorkers: 8})
	_, resp := post(t, s.Handler(), presetBody(""))
	if resp == nil {
		t.Fatal("request failed")
	}
	want := 8
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if resp.RefineWorkers != want {
		t.Errorf("effective refine_workers = %d, want %d (server default 8 clamped)", resp.RefineWorkers, want)
	}
}

// TestPartitionRefineWorkersNegative: negative values are a 400, not a
// silent clamp.
func TestPartitionRefineWorkersNegative(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(presetBody(`"refine_workers":-2`)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("refine_workers=-2: status %d, want 400; body %s", rec.Code, rec.Body.String())
	}
}

// TestMetricsRefineWorkers: /metrics exposes the effective refinement
// parallelism of the last run, the refine-phase nanosecond counter, and the
// refine_parallel entry of the phase-seconds family.
func TestMetricsRefineWorkers(t *testing.T) {
	s := New(Config{})
	if _, resp := post(t, s.Handler(), presetBody(`"refine_workers":3`)); resp == nil {
		t.Fatal("request failed")
	}
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()
	want := 3
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if !strings.Contains(body, fmt.Sprintf("hpartd_refine_workers %d", want)) {
		t.Errorf("metrics missing hpartd_refine_workers %d:\n%s", want, body)
	}
	if !strings.Contains(body, `hpartd_phase_seconds_total{phase="refine_parallel"}`) {
		t.Error("metrics missing phase=\"refine_parallel\" in hpartd_phase_seconds_total")
	}
}
