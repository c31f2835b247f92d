package promod

import (
	"errors"
	"sync"

	"promonet/internal/obs"
)

// coalescer is the daemon's single-flight layer: concurrent requests for
// the same key share one execution, and completed results live in a
// FIFO cache keyed by the same string. Every snapshot owns its
// coalescers (one for measure standings, one for answers), so a result
// can never be served against the wrong host and drops with the
// snapshot it was computed on.
//
// This is what turns "thousands of clients ask about the same few
// popular targets" from thousands of engine batches into one: the first
// request computes, its contemporaries block on the flight, and
// everyone after hits the cache.
type coalescer struct {
	mu        sync.Mutex
	flights   map[string]*flight
	cache     map[string]any
	order     []string // FIFO eviction order of cache keys
	max       int      // cache bound; 0 means unbounded
	coalesced *obs.Counter
}

// flight is one in-progress computation; followers block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

func newCoalescer(maxEntries int, coalesced *obs.Counter) *coalescer {
	return &coalescer{
		flights:   make(map[string]*flight),
		cache:     make(map[string]any),
		max:       maxEntries,
		coalesced: coalesced,
	}
}

// do returns the cached result for key, joins an in-progress flight for
// it, or becomes the leader and runs compute. Errors are returned to the
// leader and every follower of that flight but never cached — the next
// request retries.
func (c *coalescer) do(key string, compute func() (any, error)) (any, error) {
	c.mu.Lock()
	if v, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Inc()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	// Pre-set the error so that a panicking compute (recovered by the
	// HTTP layer) still releases followers with a failure instead of a
	// nil result.
	f.err = errors.New("promod: coalesced computation aborted")
	c.flights[key] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, f.err
}

// insertLocked adds a completed result under c.mu, evicting the oldest
// entry when full.
func (c *coalescer) insertLocked(key string, val any) {
	if _, ok := c.cache[key]; ok {
		return
	}
	for c.max > 0 && len(c.cache) >= c.max && len(c.order) > 0 {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.cache, old)
	}
	c.cache[key] = val
	c.order = append(c.order, key)
}

// size reports the number of cached entries (tests only).
func (c *coalescer) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}
