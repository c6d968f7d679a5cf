package server

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// checkWorkersInvariance: a server built with the worker setting at 1, 2
// and 4 returns the answer the setting returns at 1, bit for bit, with
// repeat requests served from the hierarchy cache.
func checkWorkersInvariance(t *testing.T, set func(*Config, int)) {
	t.Helper()
	var base *Response
	for _, n := range []int{1, 2, 4} {
		var cfg Config
		set(&cfg, n)
		s := New(cfg)
		_, cold := post(t, s.Handler(), presetBody(""))
		_, warm := post(t, s.Handler(), presetBody(""))
		if cold == nil || warm == nil {
			t.Fatalf("workers %d: request failed", n)
		}
		if warm.Cache != "hit" {
			t.Errorf("workers %d: repeat request cache=%q, want hit", n, warm.Cache)
		}
		if base == nil {
			base = cold
		}
		for _, r := range []*Response{cold, warm} {
			if r.Cut != base.Cut || !slices.Equal(r.Assignment, base.Assignment) {
				t.Fatalf("workers %d: cut %d differs from the answer at 1 (cut %d)", n, r.Cut, base.Cut)
			}
		}
	}
}

// checkWorkersClamp: New clamps the worker setting to GOMAXPROCS once, and
// the clamped server still answers.
func checkWorkersClamp(t *testing.T, set func(*Config, int), get func(Config) int) *Response {
	t.Helper()
	var cfg Config
	set(&cfg, 8)
	s := New(cfg)
	if got, want := get(s.cfg), min(8, runtime.GOMAXPROCS(0)); got != want {
		t.Errorf("effective workers = %d, want %d (8 clamped to GOMAXPROCS)", got, want)
	}
	_, resp := post(t, s.Handler(), presetBody(""))
	if resp == nil {
		t.Fatal("request failed")
	}
	return resp
}

// TestConfigWorkersInvariance: the starts' fan-out width never changes the
// answer, and the time spent in each stage a server switches on is visible
// in /metrics.
func TestConfigWorkersInvariance(t *testing.T) {
	checkWorkersInvariance(t, func(c *Config, n int) { c.RunWorkers = n })

	s := New(Config{RefineWorkers: 1, LocalizedFMWorkers: 1})
	_, resp := post(t, s.Handler(), presetBody(""))
	if resp == nil {
		t.Fatal("request failed")
	}
	if resp.Phases.RefineParallelNS == 0 || resp.Phases.RefineLocalizedNS == 0 {
		t.Errorf("stages configured on did not run: phases %+v", resp.Phases)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, phase := range []string{"coarsen", "refine_parallel", "refine_localized"} {
		if !strings.Contains(rec.Body.String(), `hpartd_phase_seconds_total{phase="`+phase+`"}`) {
			t.Errorf("metrics missing phase=%q in hpartd_phase_seconds_total", phase)
		}
	}
}

func setCoarsen(c *Config, n int)     { c.CoarsenWorkers = n }
func setRefine(c *Config, n int)      { c.RefineWorkers = n }
func setLocalizedFM(c *Config, n int) { c.LocalizedFMWorkers = n }

// TestPartitionCoarsenWorkersField: Config.CoarsenWorkers never changes the
// answer or misses the hierarchy cache.
func TestPartitionCoarsenWorkersField(t *testing.T) {
	checkWorkersInvariance(t, setCoarsen)
}

// TestPartitionCoarsenWorkersServerDefault: Config.CoarsenWorkers is clamped
// to GOMAXPROCS.
func TestPartitionCoarsenWorkersServerDefault(t *testing.T) {
	checkWorkersClamp(t, setCoarsen, func(c Config) int { return c.CoarsenWorkers })
}

// TestPartitionRefineWorkersField: every Config.RefineWorkers >= 1 returns
// the identical answer while still hitting the hierarchy cache.
func TestPartitionRefineWorkersField(t *testing.T) {
	checkWorkersInvariance(t, setRefine)
}

// TestPartitionRefineWorkersServerDefault: Config.RefineWorkers is clamped
// to GOMAXPROCS and switches the parallel refinement stage on.
func TestPartitionRefineWorkersServerDefault(t *testing.T) {
	resp := checkWorkersClamp(t, setRefine, func(c Config) int { return c.RefineWorkers })
	if resp.Phases.RefineParallelNS == 0 {
		t.Errorf("parallel refinement did not run: phases %+v", resp.Phases)
	}
}

// TestPartitionLocalizedFMWorkersField: every Config.LocalizedFMWorkers >= 1
// returns the identical answer while still hitting the hierarchy cache.
func TestPartitionLocalizedFMWorkersField(t *testing.T) {
	checkWorkersInvariance(t, setLocalizedFM)
}

// TestPartitionLocalizedFMWorkersServerDefault: Config.LocalizedFMWorkers
// is clamped to GOMAXPROCS and switches the localized FM stage on.
func TestPartitionLocalizedFMWorkersServerDefault(t *testing.T) {
	resp := checkWorkersClamp(t, setLocalizedFM, func(c Config) int { return c.LocalizedFMWorkers })
	if resp.Phases.RefineLocalizedNS == 0 {
		t.Errorf("localized FM did not run: phases %+v", resp.Phases)
	}
}

// TestPartitionRemovedFields: machine settings are not request fields; a
// body that still carries one is a 400 naming it.
func TestPartitionRemovedFields(t *testing.T) {
	s := New(Config{})
	for _, field := range []string{"workers", "coarsen_workers", "refine_workers", "localized_fm_workers", "refine_passes"} {
		t.Run(field, func(t *testing.T) {
			rec, _ := post(t, s.Handler(), presetBody(`"`+field+`":1`))
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `\"`+field+`\"`) {
				t.Errorf("status %d, body %s; want a 400 naming the field", rec.Code, rec.Body.String())
			}
		})
	}
}
