// Command hpartd serves hypergraph partitioning over HTTP.
//
// It wraps the multilevel fixed-vertex partitioner in a long-running service
// with a hierarchy cache, admission control and Prometheus metrics — see
// internal/server for the endpoint contract and README.md for usage examples.
// -run-workers holds for every request (requests carry no machine
// settings); each descent runs its three stages on one goroutine.
//
// Usage:
//
//	hpartd [flags]
//
// Flags:
//
//	-addr string        listen address (default ":8080")
//	-concurrency int    concurrent partition runs (default GOMAXPROCS)
//	-queue int          admission queue depth (default 2*concurrency)
//	-cache int          hierarchy cache capacity in instances (default 32)
//	-run-workers int    goroutines per run's multistart fan-out (default 1)
//	-max-body int       request body limit in bytes (default 32 MiB)
//	-max-starts int     per-request multistart limit (default 64)
//	-timeout duration   default per-request timeout (default 1m)
//	-max-timeout duration  cap on requested timeouts (default 5m)
//	-drain duration     graceful-shutdown drain budget (default 30s)
//
// On SIGINT/SIGTERM the daemon stops accepting work, drains in-flight runs
// for the -drain budget, then hard-cancels stragglers (they respond with
// their best-so-far truncated results) and exits.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 0, "concurrent partition runs (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 2*concurrency)")
	cache := flag.Int("cache", 32, "hierarchy cache capacity in instances")
	runWorkers := flag.Int("run-workers", 1, "goroutines per run's multistart fan-out")
	maxBody := flag.Int64("max-body", 32<<20, "request body limit in bytes")
	maxStarts := flag.Int("max-starts", 64, "per-request multistart limit")
	timeout := flag.Duration("timeout", time.Minute, "default per-request timeout")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on requested timeouts")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	flag.Parse()

	srv := server.New(server.Config{
		Concurrency:    *concurrency,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		RunWorkers:     *runWorkers,
		MaxBodyBytes:   *maxBody,
		MaxStarts:      *maxStarts,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("hpartd listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	case sig := <-sigCh:
		log.Printf("received %v, draining for up to %v", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("hpartd stopped")
}
