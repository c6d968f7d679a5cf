package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// presetBody is a small, fast request used throughout; scale 0.05 keeps a
// full multistart under ~100ms.
func presetBody(extra string) string {
	s := `{"preset":{"name":"IBM01S","scale":0.05},"starts":4,"fix_fraction":0.3`
	if extra != "" {
		s += "," + extra
	}
	return s + "}"
}

func post(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *Response) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/partition", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad 200 body: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

func TestPartitionPresetHappyPath(t *testing.T) {
	s := New(Config{})
	rec, resp := post(t, s.Handler(), presetBody(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Instance != "IBM01S@0.05" {
		t.Errorf("instance %q", resp.Instance)
	}
	if resp.K != 2 || resp.Vertices == 0 || len(resp.Assignment) != resp.Vertices {
		t.Errorf("shape: k=%d vertices=%d len(assignment)=%d", resp.K, resp.Vertices, len(resp.Assignment))
	}
	if resp.Fixed == 0 {
		t.Error("fix_fraction 0.3 fixed no vertices")
	}
	if resp.Cache != "miss" {
		t.Errorf("first request cache=%q, want miss", resp.Cache)
	}
	if resp.Truncated || resp.Starts != 4 {
		t.Errorf("starts=%d truncated=%v", resp.Starts, resp.Truncated)
	}
	if resp.Phases == nil || resp.Phases.CoarsenNS == 0 {
		t.Error("cold request reported no coarsening time")
	}
}

// TestPartitionCacheHitIdentical: a repeated identical body is served from
// the hierarchy cache with a bit-identical answer and no coarsening work.
func TestPartitionCacheHitIdentical(t *testing.T) {
	s := New(Config{})
	_, cold := post(t, s.Handler(), presetBody(""))
	_, warm := post(t, s.Handler(), presetBody(""))
	if cold == nil || warm == nil {
		t.Fatal("request failed")
	}
	if warm.Cache != "hit" {
		t.Errorf("second request cache=%q, want hit", warm.Cache)
	}
	if warm.Cut != cold.Cut {
		t.Errorf("warm cut %d != cold cut %d", warm.Cut, cold.Cut)
	}
	for v := range cold.Assignment {
		if warm.Assignment[v] != cold.Assignment[v] {
			t.Fatalf("assignment diverges at vertex %d", v)
		}
	}
	if warm.Phases.CoarsenNS != 0 {
		t.Errorf("warm request coarsened (%d ns)", warm.Phases.CoarsenNS)
	}
	st := s.cache.stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats misses=%d hits=%d, want 1/1", st.Misses, st.Hits)
	}
}

// TestPartitionConcurrentSingleBuild: many concurrent identical requests
// collapse to exactly one hierarchy build; everyone gets the same answer.
func TestPartitionConcurrentSingleBuild(t *testing.T) {
	s := New(Config{Concurrency: 8})
	const n = 8
	cuts := make([]int64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, resp := post(t, s.Handler(), presetBody(""))
			if resp == nil {
				t.Errorf("request %d: status %d", i, rec.Code)
				return
			}
			cuts[i] = resp.Cut
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if cuts[i] != cuts[0] {
			t.Errorf("request %d cut %d != %d", i, cuts[i], cuts[0])
		}
	}
	st := s.cache.stats()
	if st.Misses != 1 {
		t.Errorf("%d concurrent identical requests built %d times", n, st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits=%d, want %d", st.Hits, n-1)
	}
}

func TestPartitionUploadAndKWay(t *testing.T) {
	s := New(Config{})
	upload := `{"hypergraph":{"areas":[1,1,1,1,1,1,1,1],"nets":[[0,1,2],[2,3,4],[4,5,6],[6,7,0],[1,5]]},"starts":2}`
	rec, resp := post(t, s.Handler(), upload)
	if resp == nil {
		t.Fatalf("upload failed: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Vertices != 8 || resp.Nets != 5 {
		t.Errorf("upload shape %d/%d", resp.Vertices, resp.Nets)
	}
	if _, warm := post(t, s.Handler(), upload); warm == nil || warm.Cache != "hit" {
		t.Error("re-uploaded identical netlist missed the cache")
	}

	kway := `{"preset":{"name":"IBM01S","scale":0.05},"k":4,"starts":2}`
	if _, resp := post(t, s.Handler(), kway); resp == nil {
		t.Fatal("k=4 request failed")
	} else if resp.Cache != "bypass" || resp.K != 4 {
		t.Errorf("k=4: cache=%q k=%d, want bypass/4", resp.Cache, resp.K)
	}
}

func TestPartitionValidation(t *testing.T) {
	s := New(Config{MaxStarts: 8})
	cases := map[string]string{
		"both instance kinds":  `{"preset":{"name":"IBM01S"},"hypergraph":{"areas":[1,1],"nets":[[0,1]]}}`,
		"neither":              `{}`,
		"unknown preset":       `{"preset":{"name":"NOPE"}}`,
		"bad policy":           presetBody(`"policy":"fifo"`),
		"bad k":                presetBody(`"k":1`),
		"bad cutoff":           presetBody(`"cutoff":1.5`),
		"bad fix_fraction":     presetBody(`"fix_fraction":-0.1`),
		"too many starts":      presetBody(`"starts":9`),
		"unknown field":        presetBody(`"bogus":1`),
		"tiny upload":          `{"hypergraph":{"areas":[1],"nets":[[0]]}}`,
		"net pin out of range": `{"hypergraph":{"areas":[1,1],"nets":[[0,7]]}}`,
		"fixed part too big":   presetBody(`"fixed":[{"vertex":0,"parts":[5]}]`),
	}
	for name, body := range cases {
		rec, _ := post(t, s.Handler(), body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
	if rec := httptest.NewRecorder(); true {
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/partition", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET /partition: %d, want 405", rec.Code)
		}
	}
}

func TestPartitionTooLarge(t *testing.T) {
	s := New(Config{MaxBodyBytes: 256, MaxVertices: 4})
	big := `{"hypergraph":{"areas":[` + strings.Repeat("1,", 200) + `1],"nets":[[0,1]]}}`
	rec, _ := post(t, s.Handler(), big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", rec.Code)
	}

	s2 := New(Config{MaxVertices: 4})
	over := `{"hypergraph":{"areas":[1,1,1,1,1,1],"nets":[[0,1]]}}`
	rec2, _ := post(t, s2.Handler(), over)
	if rec2.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("too many vertices: %d, want 413", rec2.Code)
	}
	rec3, _ := post(t, s2.Handler(), `{"preset":{"name":"IBM01S"}}`)
	if rec3.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized preset: %d, want 413", rec3.Code)
	}
}

// TestPartitionQueueFull drives admission control deterministically by
// occupying the worker semaphore directly: with both slots held, the first
// extra request queues and the one after that overflows the depth-1 queue.
func TestPartitionQueueFull(t *testing.T) {
	s := New(Config{Concurrency: 1, QueueDepth: 1})
	s.sem <- struct{}{} // occupy the only worker slot

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec, _ := post(t, s.Handler(), presetBody(""))
		done <- rec
	}()
	waitFor(t, func() bool { return atomic.LoadInt64(&s.metrics.queued) == 1 })

	rec, _ := post(t, s.Handler(), presetBody(""))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	<-s.sem // free the slot; the queued request must now run to completion
	if rec := <-done; rec.Code != http.StatusOK {
		t.Errorf("queued request finished with %d", rec.Code)
	}
}

// TestPartitionTimeoutTruncates: a 1ms budget against a 64-start run either
// returns a feasible truncated prefix (200) or, if nothing finished, 504.
func TestPartitionTimeoutTruncates(t *testing.T) {
	s := New(Config{})
	body := `{"preset":{"name":"IBM01S","scale":0.2},"starts":64,"timeout_ms":1}`
	rec, resp := post(t, s.Handler(), body)
	switch rec.Code {
	case http.StatusOK:
		if !resp.Truncated {
			t.Errorf("64 starts in 1ms reported untruncated (starts=%d)", resp.Starts)
		}
		if resp.Starts >= resp.RequestedStarts {
			t.Errorf("truncated but starts %d >= requested %d", resp.Starts, resp.RequestedStarts)
		}
	case http.StatusGatewayTimeout:
		// acceptable: cancelled before any start completed
	default:
		t.Errorf("status %d, want 200 or 504: %s", rec.Code, rec.Body.String())
	}
}

// TestPartitionHugeTimeout: a timeout_ms beyond what a time.Duration holds
// is clamped to the server maximum, not overflowed into an instant timeout.
func TestPartitionHugeTimeout(t *testing.T) {
	s := New(Config{})
	rec, resp := post(t, s.Handler(), presetBody(`"timeout_ms":10000000000000`))
	if resp == nil || resp.Truncated {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestShutdownDrains: in-flight requests finish with 200 during a graceful
// drain; requests arriving after drain begins get 503.
func TestShutdownDrains(t *testing.T) {
	s := New(Config{})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec, _ := post(t, s.Handler(), `{"preset":{"name":"IBM01S","scale":0.2},"starts":16}`)
		done <- rec
	}()
	waitFor(t, func() bool { return atomic.LoadInt64(&s.metrics.inflight) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if rec := <-done; rec.Code != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain", rec.Code)
	}
	rec, _ := post(t, s.Handler(), presetBody(""))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestShutdownHardCancel: when the drain deadline has already passed, runs
// are hard-cancelled and still respond (truncated or 504) instead of hanging.
func TestShutdownHardCancel(t *testing.T) {
	s := New(Config{})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec, _ := post(t, s.Handler(), `{"preset":{"name":"IBM01S","scale":0.3},"starts":64}`)
		done <- rec
	}()
	waitFor(t, func() bool { return atomic.LoadInt64(&s.metrics.inflight) == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("hard-cancel shutdown did not converge: %v", err)
	}
	select {
	case rec := <-done:
		if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
			t.Errorf("hard-cancelled request finished with %d", rec.Code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hard-cancelled request never responded")
	}
}

func TestHealthzMetricsPresets(t *testing.T) {
	s := New(Config{})
	post(t, s.Handler(), presetBody(""))

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var hz map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil || hz["status"] != "ok" {
		t.Errorf("healthz: %v %s", err, rec.Body.String())
	}
	if hz["cache_entries"] != float64(1) {
		t.Errorf("healthz cache_entries = %v, want 1", hz["cache_entries"])
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, w := range []string{
		`hpartd_requests_total{endpoint="partition",code="200"} 1`,
		"hpartd_cache_misses_total 1",
		"hpartd_request_duration_seconds_count 1",
		"hpartd_starts_total 4",
		`hpartd_phase_seconds_total{phase="refine"}`,
		"hpartd_fm_pins_scanned_total",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("metrics missing %q", w)
		}
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/presets", nil))
	var presets []map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &presets); err != nil || len(presets) == 0 {
		t.Errorf("presets: %v %s", err, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline: %d", rec.Code)
	}
}

// TestPartitionSeedChangesAnswerKeyDoesNot: the run seed varies the answer
// but not the cache key (hierarchies are keyed by instance, not run seed).
func TestPartitionSeedChangesAnswerKeyDoesNot(t *testing.T) {
	s := New(Config{})
	_, a := post(t, s.Handler(), presetBody(`"seed":1`))
	_, b := post(t, s.Handler(), presetBody(`"seed":2`))
	if a == nil || b == nil {
		t.Fatal("request failed")
	}
	st := s.cache.stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("different seeds should share hierarchies: misses=%d hits=%d", st.Misses, st.Hits)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
