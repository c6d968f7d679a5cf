package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPartitionLocalizedFMWorkersField: the localized_fm_workers request
// field is accepted, clamped to GOMAXPROCS, echoed back as the effective
// value, and — the determinism contract — every count >= 1 returns the
// identical answer while still hitting the hierarchy cache (the field is not
// in the key).
func TestPartitionLocalizedFMWorkersField(t *testing.T) {
	s := New(Config{})
	_, base := post(t, s.Handler(), presetBody(""))
	if base == nil {
		t.Fatal("baseline request failed")
	}
	if base.LocalizedFMWorkers != 0 {
		t.Errorf("default localized_fm_workers = %d, want the server default 0 (stage off)", base.LocalizedFMWorkers)
	}

	recA, respA := post(t, s.Handler(), presetBody(`"localized_fm_workers":2`))
	if respA == nil {
		t.Fatalf("status %d: %s", recA.Code, recA.Body.String())
	}
	recB, respB := post(t, s.Handler(), presetBody(`"localized_fm_workers":4`))
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
	if respA.LocalizedFMWorkers != wantA || respB.LocalizedFMWorkers != wantB {
		t.Errorf("effective localized_fm_workers = %d/%d, want %d/%d (clamped to GOMAXPROCS %d)",
			respA.LocalizedFMWorkers, respB.LocalizedFMWorkers, wantA, wantB, runtime.GOMAXPROCS(0))
	}
	// Worker-count invariance: 2 and 4 workers must agree bit for bit.
	if respA.Cut != respB.Cut || respA.KMinus1 != respB.KMinus1 {
		t.Errorf("localized_fm_workers changed the answer: cut %d/%d, km1 %d/%d",
			respA.Cut, respB.Cut, respA.KMinus1, respB.KMinus1)
	}
	for v := range respA.Assignment {
		if respA.Assignment[v] != respB.Assignment[v] {
			t.Fatalf("localized_fm_workers changed the assignment at vertex %d", v)
		}
	}
	// localized_fm_workers is excluded from the cache key: these requests
	// must reuse the hierarchies built by the (stage-off) baseline request.
	if respA.Cache != "hit" || respB.Cache != "hit" {
		t.Errorf("localized_fm_workers requests cache=%q/%q, want hit (field must not join the cache key)",
			respA.Cache, respB.Cache)
	}
}

// TestPartitionLocalizedFMWorkersServerDefault: the -localized-fm-workers
// server flag supplies the default when the request omits the field, after
// the same GOMAXPROCS clamp.
func TestPartitionLocalizedFMWorkersServerDefault(t *testing.T) {
	s := New(Config{LocalizedFMWorkers: 8})
	_, resp := post(t, s.Handler(), presetBody(""))
	if resp == nil {
		t.Fatal("request failed")
	}
	want := 8
	if max := runtime.GOMAXPROCS(0); want > max {
		want = max
	}
	if resp.LocalizedFMWorkers != want {
		t.Errorf("effective localized_fm_workers = %d, want %d (server default 8 clamped)", resp.LocalizedFMWorkers, want)
	}
}

// TestPartitionLocalizedFMWorkersNegative: negative values are a 400, not a
// silent clamp.
func TestPartitionLocalizedFMWorkersNegative(t *testing.T) {
	s := New(Config{})
	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(presetBody(`"localized_fm_workers":-2`)))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("localized_fm_workers=-2: status %d, want 400; body %s", rec.Code, rec.Body.String())
	}
}

// TestMetricsLocalizedFMWorkers: /metrics exposes the effective localized-FM
// parallelism of the last run, the stage's nanosecond counter, and the
// refine_localized entry of the phase-seconds family.
func TestMetricsLocalizedFMWorkers(t *testing.T) {
	s := New(Config{})
	if _, resp := post(t, s.Handler(), presetBody(`"localized_fm_workers":3`)); resp == nil {
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
	if !strings.Contains(body, fmt.Sprintf("hpartd_localized_fm_workers %d", want)) {
		t.Errorf("metrics missing hpartd_localized_fm_workers %d:\n%s", want, body)
	}
	if !strings.Contains(body, `hpartd_phase_seconds_total{phase="refine_localized"}`) {
		t.Error("metrics missing phase=\"refine_localized\" in hpartd_phase_seconds_total")
	}
}
