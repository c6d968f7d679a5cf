package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPartitionCoarsenWorkersField: the coarsen_workers request field is
// accepted, clamped to GOMAXPROCS, echoed back as the effective value, and —
// the determinism contract — never changes the answer or misses the
// hierarchy cache.
func TestPartitionCoarsenWorkersField(t *testing.T) {
	s := New(Config{})
	_, base := post(t, s.Handler(), presetBody(""))
	if base == nil {
		t.Fatal("baseline request failed")
	}
	if base.CoarsenWorkers != 1 {
		t.Errorf("default coarsen_workers = %d, want the server default 1", base.CoarsenWorkers)
	}

	rec, resp := post(t, s.Handler(), presetBody(`"coarsen_workers":4`))
	if resp == nil {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	want := 4
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if resp.CoarsenWorkers != want {
		t.Errorf("effective coarsen_workers = %d, want %d (request 4 clamped to GOMAXPROCS %d)",
			resp.CoarsenWorkers, want, runtime.GOMAXPROCS(0))
	}
	if resp.Cut != base.Cut {
		t.Errorf("coarsen_workers changed the cut: %d vs %d", resp.Cut, base.Cut)
	}
	for v := range base.Assignment {
		if resp.Assignment[v] != base.Assignment[v] {
			t.Fatalf("coarsen_workers changed the assignment at vertex %d", v)
		}
	}
	// coarsen_workers is excluded from the cache key: a different worker
	// count must reuse the hierarchies built by the baseline request.
	if resp.Cache != "hit" {
		t.Errorf("coarsen_workers=4 request cache=%q, want hit (field must not join the cache key)", resp.Cache)
	}
}

// TestPartitionCoarsenWorkersServerDefault: the -coarsen-workers server flag
// supplies the default when the request omits the field, after the same
// GOMAXPROCS clamp.
func TestPartitionCoarsenWorkersServerDefault(t *testing.T) {
	s := New(Config{CoarsenWorkers: 8})
	_, resp := post(t, s.Handler(), presetBody(""))
	if resp == nil {
		t.Fatal("request failed")
	}
	want := 8
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if resp.CoarsenWorkers != want {
		t.Errorf("effective coarsen_workers = %d, want %d (server default 8 clamped)", resp.CoarsenWorkers, want)
	}
}

// TestPartitionCoarsenWorkersNegative: negative values are a 400, not a
// silent clamp.
func TestPartitionCoarsenWorkersNegative(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(presetBody(`"coarsen_workers":-2`)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("coarsen_workers=-2: status %d, want 400; body %s", rec.Code, rec.Body.String())
	}
}

// TestMetricsCoarsenWorkers: /metrics exposes the effective coarsening
// parallelism of the last run and the coarsen-phase nanosecond counter.
func TestMetricsCoarsenWorkers(t *testing.T) {
	s := New(Config{})
	if _, resp := post(t, s.Handler(), presetBody(`"coarsen_workers":3`)); resp == nil {
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
	if !strings.Contains(body, fmt.Sprintf("hpartd_coarsen_workers %d", want)) {
		t.Errorf("metrics missing hpartd_coarsen_workers %d:\n%s", want, body)
	}
	if !strings.Contains(body, `hpartd_phase_seconds_total{phase="coarsen"}`) {
		t.Error("metrics missing phase=\"coarsen\" in hpartd_phase_seconds_total")
	}
}
