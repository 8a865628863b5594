package main

import (
	"sync"

	"repro"
)

// keyCache maps cache keys to parsed, Precompute()d repro.PublicKey
// values so repeat verifiers hit the w=10 fixed-window table (18 KiB
// each) instead of rebuilding it per request. It is an LRU with
// singleflight semantics: concurrent misses on the same key share one
// build instead of racing N table constructions.
//
// Two kinds of entry share the cache, distinguished by a namespace
// prefix on the map key — load-bearing, because a compressed public
// key and an implicit certificate are both 31 raw bytes:
//
//	'k' || keyBytes                       — a verification key (TVerify)
//	'c' || len(identity) || identity || certBytes — a key extracted
//	     from an implicit certificate (TCertVerify); the identity is
//	     part of the key because extraction binds it
type keyCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*keyEntry
	// Intrusive doubly-linked LRU list; head.next is most recent,
	// head.prev least recent. head itself is a sentinel.
	head keyEntry

	m *metrics
}

type keyEntry struct {
	key        string
	next, prev *keyEntry

	// ready is closed once pub/err are final. Waiters block on it
	// outside the cache lock, so a slow Precompute never serialises
	// unrelated lookups.
	ready chan struct{}
	pub   *repro.PublicKey
	err   error
}

func newKeyCache(capacity int, m *metrics) *keyCache {
	if capacity < 1 {
		capacity = 1
	}
	c := &keyCache{cap: capacity, entries: make(map[string]*keyEntry), m: m}
	c.head.next = &c.head
	c.head.prev = &c.head
	return c
}

func (c *keyCache) unlink(e *keyEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next, e.prev = nil, nil
}

func (c *keyCache) pushFront(e *keyEntry) {
	e.next = c.head.next
	e.prev = &c.head
	e.next.prev = e
	c.head.next = e
}

// keyCacheKey renders the verification-key namespace key.
func keyCacheKey(raw []byte) string { return "k" + string(raw) }

// certCacheKey renders the certificate namespace key. The identity is
// length-prefixed so (identity, cert) pairs cannot collide by
// concatenation.
func certCacheKey(cert, identity []byte) string {
	b := make([]byte, 0, 2+len(identity)+len(cert))
	b = append(b, 'c', byte(len(identity)))
	b = append(b, identity...)
	b = append(b, cert...)
	return string(b)
}

// getKey returns the parsed+precomputed verification key for raw
// compressed bytes, building it at most once per residency.
func (c *keyCache) getKey(raw []byte) (*repro.PublicKey, error) {
	return c.get(keyCacheKey(raw), func() (*repro.PublicKey, error) {
		pub, err := repro.NewPublicKey(raw)
		if err == nil {
			pub.Precompute()
		}
		return pub, err
	})
}

// get returns the cached key under key, building it with build at most
// once per residency. Errors are not cached: a failed build is removed
// so the map never pins garbage, and the work repeats on the next
// request.
func (c *keyCache) get(key string, build func() (*repro.PublicKey, error)) (*repro.PublicKey, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.unlink(e)
		c.pushFront(e)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// Joining an in-flight build that then failed is not a hit —
			// no table was served. Counting it apart keeps the hit rate
			// honest under a malformed-key storm, where every storm
			// request lands on some other storm request's doomed build.
			c.m.cacheWaitFails.Add(1)
			return nil, e.err
		}
		c.m.cacheHits.Add(1)
		return e.pub, nil
	}
	c.m.cacheMisses.Add(1)
	e := &keyEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.pushFront(e)
	c.mu.Unlock()

	// Build outside the lock: parsing plus Precompute is the expensive
	// part and other keys must not queue behind it.
	c.m.cacheBuilds.Add(1)
	pub, err := build()
	e.pub, e.err = pub, err
	close(e.ready)

	c.mu.Lock()
	if err != nil {
		// Failed builds never become resident — a stream of malformed
		// keys must not evict anyone's table. Only remove if this entry
		// still owns the slot (a later build may own the key by now).
		if cur, ok := c.entries[key]; ok && cur == e {
			c.unlink(e)
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, err
	}
	c.evictLocked(e)
	c.mu.Unlock()
	return pub, nil
}

// put inserts an already-built key under key — the enrollment path,
// where the server just issued and extracted the certificate and wants
// both the cert-namespace and key-namespace lookups warm. An existing
// resident entry is refreshed in place.
func (c *keyCache) put(key string, pub *repro.PublicKey) {
	ready := make(chan struct{})
	close(ready)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.unlink(e)
		c.pushFront(e)
		c.mu.Unlock()
		// Residents are immutable once ready; a pre-warmed put for an
		// existing key only refreshes recency.
		_ = e
		return
	}
	e := &keyEntry{key: key, ready: ready, pub: pub}
	c.entries[key] = e
	c.pushFront(e)
	c.evictLocked(e)
	c.mu.Unlock()
}

// evictLocked trims the LRU tail beyond capacity, never evicting keep.
// Eviction happens only on successful inserts, so transient overshoot
// is bounded by the server's inflight cap.
func (c *keyCache) evictLocked(keep *keyEntry) {
	for len(c.entries) > c.cap {
		victim := c.head.prev
		if victim == keep {
			break
		}
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.m.cacheEvicts.Add(1)
	}
}

// len reports the current number of resident entries.
func (c *keyCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
