package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/multilevel"
)

func dummyHiers() []*multilevel.Hierarchy { return []*multilevel.Hierarchy{nil} }

func TestCacheLRUEviction(t *testing.T) {
	c := newHierCache(2)
	builds := 0
	get := func(key string) {
		c.getOrBuild(key, func() ([]*multilevel.Hierarchy, error) {
			builds++
			return dummyHiers(), nil
		})
	}
	get("a")
	get("b")
	get("a") // touch a: b is now LRU
	get("c") // evicts b
	get("a") // still resident
	get("b") // rebuilt
	st := c.stats()
	if builds != 4 {
		t.Errorf("built %d times, want 4 (a, b, c, b-again)", builds)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 2/4", st.Hits, st.Misses)
	}
}

// TestCacheSingleflight: concurrent callers of one missing key run the build
// exactly once; the waiters count as hits and all receive the same slice.
func TestCacheSingleflight(t *testing.T) {
	c := newHierCache(4)
	release := make(chan struct{})
	built := dummyHiers()
	var builds int32
	var wg sync.WaitGroup
	results := make([][]*multilevel.Hierarchy, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, _, err := c.getOrBuild("k", func() ([]*multilevel.Hierarchy, error) {
				builds++
				<-release
				return built, nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = h
		}(i)
	}
	// Wait until every goroutine has either started the build or parked on
	// the ready channel, then release the builder.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.misses+c.hits == int64(len(results))
	})
	close(release)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times", builds)
	}
	for i, h := range results {
		if len(h) != len(built) {
			t.Errorf("goroutine %d got %d hierarchies", i, len(h))
		}
	}
	st := c.stats()
	if st.Misses != 1 || st.Hits != int64(len(results)-1) {
		t.Errorf("misses=%d hits=%d, want 1/%d", st.Misses, st.Hits, len(results)-1)
	}
}

// TestCacheErrorNotCached: a failed build is dropped so the next request
// retries — transient failures (a cancelled context) must not poison a key.
func TestCacheErrorNotCached(t *testing.T) {
	c := newHierCache(4)
	boom := errors.New("boom")
	_, _, err := c.getOrBuild("k", func() ([]*multilevel.Hierarchy, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	h, hit, err := c.getOrBuild("k", func() ([]*multilevel.Hierarchy, error) { return dummyHiers(), nil })
	if err != nil || hit || len(h) != 1 {
		t.Errorf("retry after failure: h=%v hit=%v err=%v", h, hit, err)
	}
	if st := c.stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestCacheWaiterRetriesCancelledBuild: a build that fails with its own
// caller's context error does not fail the callers waiting on it — the waiter
// builds the key itself, with its own build func, and gets its hierarchies.
func TestCacheWaiterRetriesCancelledBuild(t *testing.T) {
	c := newHierCache(4)
	started, release := make(chan struct{}), make(chan struct{})
	builderErr := make(chan error, 1)
	go func() {
		_, _, err := c.getOrBuild("k", func() ([]*multilevel.Hierarchy, error) {
			close(started)
			<-release
			return nil, fmt.Errorf("multilevel: %w", context.DeadlineExceeded)
		})
		builderErr <- err
	}()
	<-started
	type result struct {
		h   []*multilevel.Hierarchy
		hit bool
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		h, hit, err := c.getOrBuild("k", func() ([]*multilevel.Hierarchy, error) { return dummyHiers(), nil })
		waiter <- result{h, hit, err}
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.hits == 1
	})
	close(release)
	if err := <-builderErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("builder err = %v, want its own deadline", err)
	}
	r := <-waiter
	if r.err != nil || r.hit || len(r.h) != 1 {
		t.Errorf("waiter: h=%v hit=%v err=%v, want its own build", r.h, r.hit, r.err)
	}
	if st := c.stats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 2 misses, 1 hit, 1 entry", st)
	}
}

func TestCacheCapacityFloor(t *testing.T) {
	c := newHierCache(0)
	for i := 0; i < 3; i++ {
		c.getOrBuild(fmt.Sprintf("k%d", i), func() ([]*multilevel.Hierarchy, error) { return dummyHiers(), nil })
	}
	if st := c.stats(); st.Entries != 1 {
		t.Errorf("capacity floor: entries = %d, want 1", st.Entries)
	}
}
