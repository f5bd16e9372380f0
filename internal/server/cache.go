package server

import (
	"container/list"
	"sync"
)

// cacheKey is the SHA-256 content hash of one request's analysis
// identity: mode, unit name, backend, checkers, queries, effective
// budget, and the canonicalized source bytes. Two requests with equal keys are
// guaranteed byte-identical responses, which is exactly what the cache
// and the single-flight group exploit.
type cacheKey [32]byte

// response is one finished request outcome: the bytes the client gets
// plus the routing metadata the transport layer needs. Responses are
// immutable once built, so the cache and every single-flight follower
// can hand out the same instance concurrently.
type response struct {
	status     int
	body       []byte
	retryAfter int // seconds; 0 = no Retry-After header

	// cacheable marks deterministic full results (status 200): the only
	// outcomes whose bytes are a pure function of the cache key.
	// Degraded and failed outcomes depend on wall clock, scheduling, or
	// transient load, so they are answered but never stored.
	cacheable bool
}

// lruCache is a bounded, mutex-guarded LRU of finished responses keyed
// by content hash. The analysis server's working set is "the sources
// the world keeps resubmitting", which is precisely what LRU retains.
type lruCache struct {
	mu  sync.Mutex
	cap int
	m   map[cacheKey]*list.Element
	ll  *list.List // front = most recently used

	hits, misses, evictions int64
}

type lruEntry struct {
	key  cacheKey
	resp *response
}

// newLRUCache builds a cache holding up to capacity responses;
// capacity <= 0 disables caching (every Get misses, Add drops).
func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, m: make(map[cacheKey]*list.Element), ll: list.New()}
}

// Get returns the cached response for key, refreshing its recency.
func (c *lruCache) Get(key cacheKey) (*response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).resp, true
}

// Add stores a response, evicting the least recently used entry when
// over capacity. Re-adding an existing key refreshes it.
func (c *lruCache) Add(key cacheKey, resp *response) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).resp = resp
		return
	}
	c.m[key] = c.ll.PushFront(&lruEntry{key: key, resp: resp})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*lruEntry).key)
		c.evictions++
	}
}

// Len reports the current entry count.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats samples the hit/miss/eviction counters.
func (c *lruCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// flight is one in-progress analysis that duplicate requests wait on.
// The leader publishes exactly once: resp is written before done is
// closed, so every waiter that returns from <-done reads it race-free.
type flight struct {
	done chan struct{}
	resp *response
}

// flightGroup deduplicates concurrent identical requests: the first
// request for a key becomes the leader and runs the analysis; requests
// arriving while it runs become followers and share its outcome
// without holding admission slots. This is what turns a thundering
// herd of identical submissions into one analysis plus N-1 cheap
// waits.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flight

	dedups int64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[cacheKey]*flight)}
}

// join returns the flight for key and whether the caller is its
// leader. Leaders MUST call publish exactly once, on every path.
func (g *flightGroup) join(key cacheKey) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		g.dedups++
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// publish hands the leader's outcome to every follower and retires the
// flight, so the next identical request after completion starts fresh
// (or hits the cache, when the outcome was cacheable).
func (g *flightGroup) publish(key cacheKey, f *flight, resp *response) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	f.resp = resp
	close(f.done)
}

// Dedups reports how many requests joined an existing flight.
func (g *flightGroup) Dedups() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dedups
}
