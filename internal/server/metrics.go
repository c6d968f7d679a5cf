package server

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fm"
	"repro/internal/multilevel"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram; an implicit +Inf bucket follows.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// metrics is the process-wide observability surface, rendered as Prometheus
// text exposition (no external dependencies). Counters are monotonic and
// updated either atomically or under the map mutex, so any number of request
// goroutines may record concurrently while /metrics renders.
type metrics struct {
	mu        sync.Mutex
	requests  map[string]int64 // "endpoint|code" -> count
	rejected  map[string]int64 // reason -> count
	objective map[string]int64 // objective name -> completed runs

	// Partition-request latency histogram (len(latencyBuckets)+1 slots,
	// the last one the +Inf bucket).
	buckets []int64
	sumNS   int64
	count   int64

	inflight  int64
	queued    int64 // admitted requests waiting for a worker slot; admission reads it too
	truncated int64
	starts    int64

	coarsenNS int64
	initNS    int64
	refineNS  int64
	// refineParNS accumulates the synchronous-round parallel refinement
	// stage; refineNS counts only the serial FM polish, mirroring
	// PhaseStats.
	refineParNS int64
	// refineLocNS accumulates the localized FM stage at the finest level,
	// again mirroring PhaseStats.
	refineLocNS int64
	kernel      fm.KernelStats
}

func newMetrics() *metrics {
	return &metrics{
		requests:  make(map[string]int64),
		rejected:  make(map[string]int64),
		objective: make(map[string]int64),
		buckets:   make([]int64, len(latencyBuckets)+1),
	}
}

// observeRequest counts one finished HTTP request.
func (m *metrics) observeRequest(endpoint string, code int) {
	m.mu.Lock()
	m.requests[fmt.Sprintf("%s|%d", endpoint, code)]++
	m.mu.Unlock()
}

// observeLatency records one partition-run duration in the histogram.
func (m *metrics) observeLatency(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	atomic.AddInt64(&m.buckets[i], 1)
	atomic.AddInt64(&m.sumNS, d.Nanoseconds())
	atomic.AddInt64(&m.count, 1)
}

// observeRejected counts one rejected request by reason
// (queue_full, too_large, draining, timeout).
func (m *metrics) observeRejected(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

// observeRun folds one completed partition run into the aggregate engine
// counters: starts actually executed, truncation, the objective optimized,
// and the per-phase wall time and FM-kernel work the run recorded in its
// private PhaseStats.
func (m *metrics) observeRun(res *multilevel.Result, phases *multilevel.PhaseStats, objective string) {
	atomic.AddInt64(&m.starts, int64(res.Starts))
	m.mu.Lock()
	m.objective[objective]++
	m.mu.Unlock()
	if res.Truncated {
		atomic.AddInt64(&m.truncated, 1)
	}
	if phases != nil {
		atomic.AddInt64(&m.coarsenNS, atomic.LoadInt64(&phases.CoarsenNS))
		atomic.AddInt64(&m.initNS, atomic.LoadInt64(&phases.InitNS))
		atomic.AddInt64(&m.refineNS, atomic.LoadInt64(&phases.RefineNS))
		atomic.AddInt64(&m.refineParNS, atomic.LoadInt64(&phases.RefineParallelNS))
		atomic.AddInt64(&m.refineLocNS, atomic.LoadInt64(&phases.RefineLocalizedNS))
		k := phases.Kernel.Snapshot()
		atomic.AddInt64(&m.kernel.NetsSkipped, k.NetsSkipped)
		atomic.AddInt64(&m.kernel.PinScansAvoided, k.PinScansAvoided)
		atomic.AddInt64(&m.kernel.PinsScanned, k.PinsScanned)
		atomic.AddInt64(&m.kernel.BucketUpdatesSaved, k.BucketUpdatesSaved)
	}
}

// writeTo renders every counter in Prometheus text exposition format v0.0.4.
func (m *metrics) writeTo(w io.Writer, cache cacheStats) {
	head := func(name, help, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	head("hpartd_requests_total", "HTTP requests served, by endpoint and status code.", "counter")
	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		endpoint, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "hpartd_requests_total{endpoint=%q,code=%q} %d\n", endpoint, code, m.requests[k])
	}
	rkeys := make([]string, 0, len(m.rejected))
	for k := range m.rejected {
		rkeys = append(rkeys, k)
	}
	sort.Strings(rkeys)
	rejected := make(map[string]int64, len(m.rejected))
	for _, k := range rkeys {
		rejected[k] = m.rejected[k]
	}
	okeys := make([]string, 0, len(m.objective))
	for k := range m.objective {
		okeys = append(okeys, k)
	}
	sort.Strings(okeys)
	objective := make(map[string]int64, len(m.objective))
	for _, k := range okeys {
		objective[k] = m.objective[k]
	}
	m.mu.Unlock()

	head("hpartd_rejected_total", "Requests rejected by admission control, by reason.", "counter")
	for _, k := range rkeys {
		fmt.Fprintf(w, "hpartd_rejected_total{reason=%q} %d\n", k, rejected[k])
	}

	head("hpartd_objective_runs_total", "Completed partition runs, by optimized objective.", "counter")
	for _, k := range okeys {
		fmt.Fprintf(w, "hpartd_objective_runs_total{objective=%q} %d\n", k, objective[k])
	}

	head("hpartd_request_duration_seconds", "Partition request latency.", "histogram")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += atomic.LoadInt64(&m.buckets[i])
		fmt.Fprintf(w, "hpartd_request_duration_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += atomic.LoadInt64(&m.buckets[len(latencyBuckets)])
	fmt.Fprintf(w, "hpartd_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "hpartd_request_duration_seconds_sum %g\n", float64(atomic.LoadInt64(&m.sumNS))/1e9)
	fmt.Fprintf(w, "hpartd_request_duration_seconds_count %d\n", atomic.LoadInt64(&m.count))

	gauge := func(name, help string, v int64) {
		head(name, help, "gauge")
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter := func(name, help string, v int64) {
		head(name, help, "counter")
		fmt.Fprintf(w, "%s %d\n", name, v)
	}

	gauge("hpartd_inflight_requests", "Partition requests currently executing.", atomic.LoadInt64(&m.inflight))
	gauge("hpartd_queued_requests", "Partition requests waiting for a worker slot.", atomic.LoadInt64(&m.queued))
	counter("hpartd_truncated_total", "Partition runs cut short by timeout or shutdown that returned a best-so-far result.", atomic.LoadInt64(&m.truncated))
	counter("hpartd_starts_total", "Multistart descents executed across all requests.", atomic.LoadInt64(&m.starts))

	counter("hpartd_cache_hits_total", "Hierarchy cache hits.", cache.Hits)
	counter("hpartd_cache_misses_total", "Hierarchy cache misses.", cache.Misses)
	counter("hpartd_cache_evictions_total", "Hierarchy cache evictions.", cache.Evictions)
	gauge("hpartd_cache_entries", "Hierarchy cache entries resident.", cache.Entries)

	head("hpartd_phase_seconds_total", "Engine wall time by multilevel phase.", "counter")
	fmt.Fprintf(w, "hpartd_phase_seconds_total{phase=\"coarsen\"} %g\n", float64(atomic.LoadInt64(&m.coarsenNS))/1e9)
	fmt.Fprintf(w, "hpartd_phase_seconds_total{phase=\"init\"} %g\n", float64(atomic.LoadInt64(&m.initNS))/1e9)
	fmt.Fprintf(w, "hpartd_phase_seconds_total{phase=\"refine\"} %g\n", float64(atomic.LoadInt64(&m.refineNS))/1e9)
	fmt.Fprintf(w, "hpartd_phase_seconds_total{phase=\"refine_parallel\"} %g\n", float64(atomic.LoadInt64(&m.refineParNS))/1e9)
	fmt.Fprintf(w, "hpartd_phase_seconds_total{phase=\"refine_localized\"} %g\n", float64(atomic.LoadInt64(&m.refineLocNS))/1e9)

	k := m.kernel.Snapshot()
	counter("hpartd_fm_nets_skipped_total", "Nets bypassed by locked-net short-circuiting in the FM kernel.", k.NetsSkipped)
	counter("hpartd_fm_pin_scans_avoided_total", "Gain-update pin traversals avoided by the net-state-aware kernel.", k.PinScansAvoided)
	counter("hpartd_fm_pins_scanned_total", "Gain-update pin traversals executed by the FM kernel.", k.PinsScanned)
	counter("hpartd_fm_bucket_updates_saved_total", "Gain-bucket repositionings folded away by batched updates.", k.BucketUpdatesSaved)
}
