package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"repro/internal/multilevel"
)

// hierCache is the LRU hierarchy cache: completed coarsening hierarchies
// keyed by the request's instance/config fingerprint. Entries are immutable
// once built (multilevel.Hierarchy is immutable by construction), so lookups
// hand the same slice to any number of concurrent requests.
//
// Concurrent requests for the same missing key are collapsed: the first
// caller builds, the rest block on the entry's ready channel and count as
// hits. A failed build removes the entry so a later request can retry; a
// build cancelled by its caller's context hands the key to the waiters.
// Eviction only drops the cache's reference — in-flight requests holding the
// hierarchies keep using them; the garbage collector reclaims the memory
// when the last user finishes.
type hierCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*cacheEntry

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	ready chan struct{} // closed when hiers/err are set
	hiers []*multilevel.Hierarchy
	err   error
	elem  *list.Element
}

// cacheStats is a consistent snapshot of the cache counters for /metrics.
type cacheStats struct {
	Hits, Misses, Evictions, Entries int64
}

func newHierCache(capacity int) *hierCache {
	if capacity < 1 {
		capacity = 1
	}
	return &hierCache{cap: capacity, ll: list.New(), byKey: make(map[string]*cacheEntry)}
}

// getOrBuild returns the hierarchies for key, building them with build on a
// miss. hit reports whether the key was already present (including "present
// but still building", in which case the call blocks until the builder
// finishes). The build runs outside the cache lock, so slow coarsening never
// stalls lookups of other keys.
//
// A build runs under its caller's context. When it fails with a context
// error, that says nothing about the waiters' own contexts, so each waiter
// looks the key up again (counted as a new lookup) and builds with its own
// build func if no other caller got there first.
func (c *hierCache) getOrBuild(key string, build func() ([]*multilevel.Hierarchy, error)) (hiers []*multilevel.Hierarchy, hit bool, err error) {
	for {
		c.mu.Lock()
		e, ok := c.byKey[key]
		if !ok {
			break // a miss: build it, with c.mu still held
		}
		c.hits++
		c.ll.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		if !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
			return e.hiers, true, e.err
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.misses++
	e.elem = c.ll.PushFront(e)
	c.byKey[key] = e
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()

	e.hiers, e.err = build()
	if e.err != nil {
		// Drop failed builds before waking the waiters, so the next request
		// (or a waiter retrying after a cancelled build) builds afresh
		// instead of being served a cached error.
		c.mu.Lock()
		if cur, ok := c.byKey[key]; ok && cur == e {
			c.ll.Remove(e.elem)
			delete(c.byKey, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.hiers, false, e.err
}

// stats returns a snapshot of the counters.
func (c *hierCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: int64(c.ll.Len())}
}
