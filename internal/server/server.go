package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fm"
	"repro/internal/gen"
	"repro/internal/hgr"
	"repro/internal/multilevel"
	"repro/internal/partition"
	"repro/internal/profiling"
)

// Config sizes the service. The zero value of every field selects a sensible
// default; see New.
type Config struct {
	// Concurrency is the number of partition runs executing at once
	// (default: GOMAXPROCS). Beyond it, requests queue.
	Concurrency int
	// QueueDepth is the number of requests allowed to wait for a worker
	// slot (default: 2 * Concurrency). Beyond it, requests are rejected
	// with 429 and a Retry-After.
	QueueDepth int
	// RunWorkers bounds the goroutines each run's starts fan out on
	// (default 1: concurrency across requests, not within one — the
	// throughput-optimal choice under load; negative means GOMAXPROCS).
	RunWorkers int
	// CoarsenWorkers, RefineWorkers and LocalizedFMWorkers are the
	// goroutine counts of the coarsening, round and localized FM stages
	// inside each descent (default 1; <= 0 means 1). They size the stages
	// and never switch them off, and no count changes a result — see
	// multilevel.Config.
	//
	// These four settings hold for every request; New clamps the three
	// stage counts to GOMAXPROCS once, since more workers than schedulable
	// CPUs only add overhead.
	CoarsenWorkers     int
	RefineWorkers      int
	LocalizedFMWorkers int
	// CacheEntries is the hierarchy-cache capacity in instances
	// (default 32).
	CacheEntries int
	// MaxBodyBytes bounds the request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxVertices / MaxNets bound accepted instance sizes
	// (default 4,000,000 each).
	MaxVertices, MaxNets int
	// MaxStarts bounds a single request's multistart count (default 64).
	MaxStarts int
	// DefaultTimeout governs runs that do not send timeout_ms
	// (default 60s); MaxTimeout clamps what they may ask for
	// (default 5m).
	DefaultTimeout, MaxTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Concurrency < 1 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 2 * c.Concurrency
	}
	if c.RunWorkers == 0 {
		c.RunWorkers = 1
	}
	procs := runtime.GOMAXPROCS(0)
	c.CoarsenWorkers = min(max(c.CoarsenWorkers, 1), procs)
	c.RefineWorkers = min(max(c.RefineWorkers, 1), procs)
	c.LocalizedFMWorkers = min(max(c.LocalizedFMWorkers, 1), procs)
	if c.CacheEntries < 1 {
		c.CacheEntries = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 4_000_000
	}
	if c.MaxNets <= 0 {
		c.MaxNets = 4_000_000
	}
	if c.MaxStarts <= 0 {
		c.MaxStarts = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the hpartd partitioning service. Create one with New, expose
// Handler on an http.Server, and call Shutdown to drain. All methods are
// safe for concurrent use.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	cache   *hierCache
	metrics *metrics

	sem chan struct{} // worker slots; len == in-flight runs

	draining  atomic.Bool
	drainCh   chan struct{} // closed when Shutdown begins
	drainOnce sync.Once
	inflight  sync.WaitGroup // requests past admission

	// runCtx is cancelled only when the drain deadline expires, hard-
	// cancelling still-running solves (they return best-so-far).
	runCtx    context.Context
	runCancel context.CancelFunc
}

// New builds a Server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newHierCache(cfg.CacheEntries),
		metrics: newMetrics(),
		sem:     make(chan struct{}, cfg.Concurrency),
		drainCh: make(chan struct{}),
	}
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/partition", s.handlePartition)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/presets", s.handlePresets)
	profiling.AttachPprof(s.mux)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: new partition requests are rejected with 503
// immediately, in-flight runs are given until ctx's deadline to finish, and
// past the deadline their contexts are cancelled so they return best-so-far
// truncated results. Shutdown returns once every in-flight request has been
// responded to, or with ctx.Err() if that does not happen even after the
// hard cancel.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.drainCh) })
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Deadline passed: hard-cancel runs, then give them a moment to flush
	// their (truncated) responses.
	s.runCancel()
	select {
	case <-done:
		return nil
	case <-time.After(5 * time.Second):
		return ctx.Err()
	}
}

// writeJSON writes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError writes an errorResponse; retryAfter > 0 also sets Retry-After.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, retryAfter int, msg string) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	s.metrics.observeRequest(endpoint, code)
	writeJSON(w, code, errorResponse{Error: msg, RetryAfterSec: retryAfter})
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	const endpoint = "partition"
	if r.Method != http.MethodPost {
		s.writeError(w, endpoint, http.StatusMethodNotAllowed, 0, "POST only")
		return
	}
	if s.draining.Load() {
		s.metrics.observeRejected("draining")
		s.writeError(w, endpoint, http.StatusServiceUnavailable, 5, "server is draining")
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.metrics.observeRejected("too_large")
			s.writeError(w, endpoint, http.StatusRequestEntityTooLarge, 0,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, endpoint, http.StatusBadRequest, 0, fmt.Sprintf("bad request body: %v", err))
		return
	}
	req = req.withDefaults()
	if err := req.validate(s.cfg); err != nil {
		var tooLarge errTooLarge
		if errors.As(err, &tooLarge) {
			s.metrics.observeRejected("too_large")
			s.writeError(w, endpoint, http.StatusRequestEntityTooLarge, 0, err.Error())
			return
		}
		s.writeError(w, endpoint, http.StatusBadRequest, 0, err.Error())
		return
	}

	// Admission: bounded queue in front of the worker semaphore. One
	// counter serves admission, /healthz and /metrics; it is raised only
	// while below QueueDepth, so it never counts a request about to get 429.
	queued := &s.metrics.queued
	for {
		n := atomic.LoadInt64(queued)
		if n >= int64(s.cfg.QueueDepth) {
			s.metrics.observeRejected("queue_full")
			s.writeError(w, endpoint, http.StatusTooManyRequests, s.retryAfterSec(), "queue full")
			return
		}
		if atomic.CompareAndSwapInt64(queued, n, n+1) {
			break
		}
	}
	select {
	case s.sem <- struct{}{}:
		atomic.AddInt64(queued, -1)
	case <-r.Context().Done():
		atomic.AddInt64(queued, -1)
		s.writeError(w, endpoint, 499, 0, "client went away while queued")
		return
	case <-s.drainCh:
		atomic.AddInt64(queued, -1)
		s.metrics.observeRejected("draining")
		s.writeError(w, endpoint, http.StatusServiceUnavailable, 5, "server is draining")
		return
	}
	atomic.AddInt64(&s.metrics.inflight, 1)
	defer func() {
		atomic.AddInt64(&s.metrics.inflight, -1)
		<-s.sem
	}()

	// The run context: client disconnect or per-request timeout cancels it,
	// and so does the server's hard-cancel at the drain deadline.
	// timeout_ms is clamped in milliseconds before the conversion, which
	// would overflow to a negative duration for huge values.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = s.cfg.MaxTimeout
		if req.TimeoutMS <= s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		}
	}
	timeout = min(timeout, s.cfg.MaxTimeout)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	stop := context.AfterFunc(s.runCtx, cancel)
	defer stop()

	t0 := time.Now()
	resp, code, errMsg := s.run(ctx, req)
	elapsed := time.Since(t0)
	s.metrics.observeLatency(elapsed)
	if resp == nil {
		s.writeError(w, endpoint, code, 0, errMsg)
		return
	}
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	s.metrics.observeRequest(endpoint, http.StatusOK)
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterSec estimates how long a rejected client should wait before
// retrying: one mean request latency, clamped to [1, 30] seconds.
func (s *Server) retryAfterSec() int {
	count := atomic.LoadInt64(&s.metrics.count)
	if count == 0 {
		return 1
	}
	mean := time.Duration(atomic.LoadInt64(&s.metrics.sumNS) / count)
	sec := int(mean / time.Second)
	if sec < 1 {
		return 1
	}
	if sec > 30 {
		return 30
	}
	return sec
}

// buildErrStatus maps a buildProblem failure to its HTTP status: oversized
// .hgr declarations (*hgr.LimitError — the streaming parser's analogue of
// validate's errTooLarge, which fires before JSON uploads get here) are 413,
// every other build failure is a plain 400.
func buildErrStatus(err error) int {
	var le *hgr.LimitError
	if errors.As(err, &le) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// run executes one admitted partition request. It returns either a response,
// or a status code and message for the error path.
func (s *Server) run(ctx context.Context, req Request) (*Response, int, string) {
	phases := &multilevel.PhaseStats{}
	objective, _ := fm.ParseObjective(req.Objective) // validated on admission
	mlCfg := multilevel.Config{
		Objective:          objective,
		MaxPassFraction:    req.Cutoff,
		Workers:            s.cfg.RunWorkers,
		CoarsenWorkers:     s.cfg.CoarsenWorkers,
		RefineWorkers:      s.cfg.RefineWorkers,
		LocalizedFMWorkers: s.cfg.LocalizedFMWorkers,
		Stats:              phases,
	}
	if req.Policy == "lifo" {
		mlCfg.Policy = fm.LIFO
	}

	var (
		prob      *partition.Problem
		res       *multilevel.Result
		cacheKind string
		name      string
		err       error
	)
	switch {
	case req.K == 2:
		// Cached path: hierarchies keyed by the instance + coarsening
		// config; the hierarchy build seed derives from the key so the
		// built hierarchies are a pure function of the key.
		var key string
		if req.Preset != nil {
			key = req.cacheKey(nil)
		} else {
			prob, name, err = buildProblem(req, s.cfg)
			if err != nil {
				return nil, buildErrStatus(err), err.Error()
			}
			key = req.cacheKey(prob)
		}
		hiers, hit, berr := s.cache.getOrBuild(key, func() ([]*multilevel.Hierarchy, error) {
			p := prob
			if p == nil {
				var perr error
				p, name, perr = buildProblem(req, s.cfg)
				if perr != nil {
					return nil, perr
				}
			}
			seed := hierarchySeed(key)
			return multilevel.BuildHierarchies(ctx, p, mlCfg, req.Hierarchies, seed)
		})
		if berr != nil {
			if ctx.Err() != nil {
				return nil, http.StatusGatewayTimeout, "run cancelled before coarsening finished: " + berr.Error()
			}
			return nil, buildErrStatus(berr), berr.Error()
		}
		cacheKind = "miss"
		if hit {
			cacheKind = "hit"
		}
		prob = hiers[0].Root()
		if name == "" {
			name = req.instanceName()
		}
		baseSeed := rand.New(rand.NewPCG(req.Seed, 0x6a9d)).Uint64()
		res, err = multilevel.MultistartOnHierarchies(ctx, hiers, mlCfg, req.Starts, baseSeed)
	default:
		// k > 2: direct k-way multistart, uncached (hierarchies are 2-way).
		cacheKind = "bypass"
		prob, name, err = buildProblem(req, s.cfg)
		if err != nil {
			return nil, buildErrStatus(err), err.Error()
		}
		rng := rand.New(rand.NewPCG(req.Seed, 0x6a9d))
		res, err = multilevel.Solve(ctx, prob, mlCfg, multilevel.Spec{Starts: req.Starts, KWay: true}, rng)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, http.StatusGatewayTimeout, "run cancelled before any start completed: " + err.Error()
		}
		return nil, http.StatusUnprocessableEntity, err.Error()
	}
	s.metrics.observeRun(res, phases, objective.String())
	if ferr := prob.Feasible(res.Assignment); ferr != nil {
		return nil, http.StatusInternalServerError, "internal error: infeasible result: " + ferr.Error()
	}

	assignment := make([]int, len(res.Assignment))
	for v, part := range res.Assignment {
		assignment[v] = int(part)
	}
	return &Response{
		Instance:        name,
		Vertices:        prob.H.NumVertices(),
		Nets:            prob.H.NumNets(),
		Pins:            prob.H.NumPins(),
		K:               prob.K,
		Fixed:           prob.NumFixed(),
		Cut:             res.Cut,
		KMinus1:         res.KMinus1,
		SOED:            res.SOED,
		Objective:       objective.String(),
		Assignment:      assignment,
		Starts:          res.Starts,
		RequestedStarts: req.Starts,
		Truncated:       res.Truncated,
		Levels:          res.Levels,
		Cache:           cacheKind,
		PartWeights:     partition.PartWeights(prob.H, res.Assignment, prob.K),
		Phases:          phases,
	}, 0, ""
}

// instanceName renders a short instance description for preset requests.
func (r Request) instanceName() string {
	if r.Preset != nil {
		return fmt.Sprintf("%s@%g", r.Preset.Name, r.Preset.Scale)
	}
	return "upload"
}

// hierarchySeed derives the hierarchy build seed from the cache key (FNV-1a
// over its bytes), so building is a pure function of the key.
func hierarchySeed(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.metrics.observeRequest("healthz", http.StatusOK)
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        status,
		"inflight":      atomic.LoadInt64(&s.metrics.inflight),
		"queued":        atomic.LoadInt64(&s.metrics.queued),
		"cache_entries": s.cache.stats().Entries,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.observeRequest("metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeTo(w, s.cache.stats())
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	type preset struct {
		Name  string `json:"name"`
		Cells int    `json:"cells"`
		Pads  int    `json:"pads"`
	}
	var out []preset
	for _, pr := range gen.AllPresets() {
		out = append(out, preset{Name: pr.Name, Cells: pr.Params.Cells, Pads: pr.Params.Pads})
	}
	s.metrics.observeRequest("presets", http.StatusOK)
	writeJSON(w, http.StatusOK, out)
}
