package main

import (
	"sync"

	"repro"
	"repro/internal/frame"
)

// Sizing and admission constants of the key cache.
const (
	// keyTierRatio sizes the key tier against the table tier. A parsed
	// key costs ~405 B of heap in the key tier and a w=10 table ~19 KB
	// (runtime.MemStats over 16,384 keys), so sixteen keys per table
	// slot keep a full key tier at about a third of the memory of a
	// full table tier.
	keyTierRatio = 16
	// admitUses is the use count at which a key earns a table. A build
	// costs ~0.12 ms and each verification over the table saves
	// 20–27 µs, so a table pays back after about five uses. A key that
	// would displace a resident table must also beat the victim's
	// count by this margin.
	admitUses = 5
	// decayPeriod is the halving period of the use counts, in lookups
	// per table slot: every decayPeriod × table-capacity lookups each
	// count is halved, so a hot set that goes quiet loses its claim.
	decayPeriod = 10
)

// keyCache holds verification keys in two tiers.
//
// The key tier keeps every parsed or extracted *repro.PublicKey, up to
// keyTierRatio × the table capacity entries, in an LRU with
// singleflight building: concurrent misses on one name share one
// parse or extraction, and a failed build is never resident.
//
// The table tier gives at most the table capacity of those keys a
// w=10 verification table (18 KiB each). Every lookup counts a use of
// its entry, and counts are halved every decayPeriod × capacity
// lookups. A lookup that finds no table admits its key — TinyLFU's
// rule (Einziger–Friedman–Manes, ACM TOS 2017) with the measured
// break-even as the bar — once the count reaches admitUses and either
// a slot is free or the count beats the least recently used table's
// by admitUses. That lookup builds the table on its own goroutine, off
// the cache lock and off the engine shard; concurrent lookups of the
// key verify without a table meanwhile. Publishing the table displaces
// the victim's, and a table goes with its key-tier entry.
//
// Entries are addressed by name, with a namespace prefix that is
// load-bearing because a compressed public key and an implicit
// certificate are both 31 raw bytes:
//
//	'k' || keyBytes                       — a verification key (TVerify)
//	'c' || len(identity) || identity || certBytes — a key extracted
//	     from an implicit certificate (TCertVerify); the identity is
//	     part of the name because extraction binds it
//
// Enrollment makes one entry resident under both names, so a
// certificate and its key share one use count and one table.
type keyCache struct {
	mu sync.Mutex

	cap     int                  // key-tier entries
	n       int                  // entries on the key-tier list
	entries map[string]*keyEntry // by name
	// Intrusive doubly-linked LRU list of the key tier; head.next is
	// most recent, head.prev least recent. head itself is a sentinel.
	head keyEntry

	tableCap int
	tabled   int // entries holding a table
	building int // admitted table builds in flight
	// LRU list of the entries holding a table, through tnext/tprev.
	tables keyEntry

	lookups, period uint64 // lookups in this decay epoch, and its length
	epoch           uint64

	m *metrics
}

type keyEntry struct {
	key   string // the name the entry was built or enrolled under
	alias string // the second name an enrollment makes resident, or ""

	next, prev   *keyEntry // key-tier list
	tnext, tprev *keyEntry // table-tier list, while tab != nil

	// ready is closed, under the cache lock, once pub/err are final.
	// Waiters block on it outside the lock, so a slow build never
	// serialises unrelated lookups.
	ready chan struct{}
	pub   *repro.PublicKey
	err   error

	// Guarded by the cache lock.
	uses     uint32 // use count, as of epoch seen
	seen     uint64
	tab      *repro.PublicKey // pub's point with a w=10 table, or nil
	building bool             // this entry's table build is in flight
}

// closedReady is the ready channel of entries made resident already
// built (enrollment).
var closedReady = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

func newKeyCache(tableCap int, m *metrics) *keyCache {
	if tableCap < 1 {
		tableCap = 1
	}
	c := &keyCache{
		cap:      keyTierRatio * tableCap,
		entries:  make(map[string]*keyEntry),
		tableCap: tableCap,
		period:   decayPeriod * uint64(tableCap),
		m:        m,
	}
	c.head.next, c.head.prev = &c.head, &c.head
	c.tables.tnext, c.tables.tprev = &c.tables, &c.tables
	return c
}

func (c *keyCache) unlink(e *keyEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.next, e.prev = nil, nil
	c.n--
}

func (c *keyCache) pushFront(e *keyEntry) {
	e.next = c.head.next
	e.prev = &c.head
	e.next.prev = e
	c.head.next = e
	c.n++
}

func (c *keyCache) tableUnlink(e *keyEntry) {
	e.tprev.tnext = e.tnext
	e.tnext.tprev = e.tprev
	e.tnext, e.tprev = nil, nil
}

func (c *keyCache) tablePushFront(e *keyEntry) {
	e.tnext = c.tables.tnext
	e.tprev = &c.tables
	e.tnext.tprev = e
	c.tables.tnext = e
}

// appendKeyName appends the verification-key namespace name of raw.
func appendKeyName(dst, raw []byte) []byte { return append(append(dst, 'k'), raw...) }

// appendCertName appends the certificate namespace name. The identity
// is length-prefixed so (identity, cert) pairs cannot collide by
// concatenation.
func appendCertName(dst, cert, identity []byte) []byte {
	dst = append(dst, 'c', byte(len(identity)))
	dst = append(dst, identity...)
	return append(dst, cert...)
}

// keyCacheKey renders the verification-key namespace name.
func keyCacheKey(raw []byte) string { return string(appendKeyName(nil, raw)) }

// certCacheKey renders the certificate namespace name.
func certCacheKey(cert, identity []byte) string {
	return string(appendCertName(nil, cert, identity))
}

// getKey returns the verification key for raw compressed bytes,
// parsing it at most once per residency. The name is built on the
// stack, so a hit allocates nothing.
func (c *keyCache) getKey(raw []byte) (*repro.PublicKey, error) {
	var buf [1 + frame.KeySize]byte
	return c.lookup(appendKeyName(buf[:0], raw), func() (*repro.PublicKey, error) {
		return repro.NewPublicKey(raw)
	})
}

// getCert returns the key extracted from the implicit certificate cert
// for identity, building it with build at most once per residency. A
// hit allocates nothing, as in getKey.
func (c *keyCache) getCert(cert, identity []byte, build func() (*repro.PublicKey, error)) (*repro.PublicKey, error) {
	var buf [2 + frame.MaxIdentity + frame.CertSize]byte
	return c.lookup(appendCertName(buf[:0], cert, identity), build)
}

// lookup returns the key resident under name — with its table, when
// it holds or has just earned one — building it with build at most
// once per residency. name is only read: the string the entry keeps
// is allocated on a miss. Errors are not cached: a failed build is
// removed so the map never pins garbage, and the work repeats on the
// next request.
func (c *keyCache) lookup(name []byte, build func() (*repro.PublicKey, error)) (*repro.PublicKey, error) {
	c.mu.Lock()
	if c.lookups++; c.lookups == c.period {
		c.lookups = 0
		c.epoch++
	}
	if e, ok := c.entries[string(name)]; ok {
		c.unlink(e)
		c.pushFront(e)
		c.decayLocked(e)
		e.uses++
		tab := e.tab
		if tab != nil {
			c.tableUnlink(e)
			c.tablePushFront(e)
		}
		admit := tab == nil && c.admitLocked(e)
		c.mu.Unlock()
		if tab != nil {
			c.m.cacheHits.Add(1)
			return tab, nil
		}
		<-e.ready
		if e.err != nil {
			// Joining an in-flight build that then failed is not a hit —
			// no key was served. Counting it apart keeps the hit rate
			// honest under a malformed-key storm, where every storm
			// request lands on some other storm request's doomed build.
			c.m.cacheWaitFails.Add(1)
			return nil, e.err
		}
		c.m.cacheHits.Add(1)
		if admit {
			return c.buildTable(e), nil
		}
		return e.pub, nil
	}
	c.m.cacheMisses.Add(1)
	e := &keyEntry{key: string(name), ready: make(chan struct{}), uses: 1, seen: c.epoch}
	c.entries[e.key] = e
	c.pushFront(e)
	c.mu.Unlock()

	// Build outside the lock: parsing or extraction must not queue
	// other keys behind it.
	c.m.cacheBuilds.Add(1)
	pub, err := build()

	c.mu.Lock()
	e.pub, e.err = pub, err
	close(e.ready)
	if err != nil {
		// Failed builds never become resident — a stream of malformed
		// keys must not evict anyone.
		if c.entries[e.key] == e {
			c.dropLocked(e)
		}
		c.mu.Unlock()
		return nil, err
	}
	c.evictLocked(e)
	c.mu.Unlock()
	return pub, nil
}

// put makes an already-built key resident under both of its names —
// the enrollment path, where the server just issued and extracted the
// certificate and wants the cert-namespace and key-namespace lookups
// warm. The names not yet resident share one new entry; a resident
// name only has its recency refreshed, as residents are immutable
// once built. No table is built here: enrollment is not a use.
func (c *keyCache) put(pub *repro.PublicKey, certName, keyName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var e *keyEntry
	for _, name := range [2]string{certName, keyName} {
		if x, ok := c.entries[name]; ok {
			c.unlink(x)
			c.pushFront(x)
			continue
		}
		if e == nil {
			e = &keyEntry{key: name, ready: closedReady, pub: pub, seen: c.epoch}
			c.pushFront(e)
		} else {
			e.alias = name
		}
		c.entries[name] = e
	}
	if e != nil {
		c.evictLocked(e)
	}
}

// decayLocked applies the halvings of the epochs since e was last
// counted, lazily, so that no sweep over the entries holds the lock.
func (c *keyCache) decayLocked(e *keyEntry) uint32 {
	if d := c.epoch - e.seen; d > 0 {
		e.uses >>= min(d, 31)
		e.seen = c.epoch
	}
	return e.uses
}

// admitLocked decides whether the lookup that just counted a use of
// e, a key without a table, builds that table. A free slot counts the
// builds already admitted as taken.
func (c *keyCache) admitLocked(e *keyEntry) bool {
	if e.pub == nil || e.building || e.uses < admitUses {
		return false // the key itself is still being built, or failed
	}
	if c.tabled+c.building >= c.tableCap {
		victim := c.tables.tprev
		if victim == &c.tables {
			return false // every slot waits on an admitted build
		}
		if e.uses < c.decayLocked(victim)+admitUses {
			c.m.tableDeclines.Add(1)
			return false
		}
	}
	e.building = true
	c.building++
	return true
}

// buildTable builds the table e was admitted for on a separate key,
// so dropping it later is just clearing e.tab and the key-tier object
// is never mutated. Publishing displaces least recently used tables
// until the admitted builds fit. If e left the key tier meanwhile the
// table is dropped at once; the caller verifies over it either way.
func (c *keyCache) buildTable(e *keyEntry) *repro.PublicKey {
	tab, err := repro.PublicKeyFromPoint(e.pub.Point())
	if err == nil {
		tab.Precompute()
		c.m.tableBuilds.Add(1)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	e.building = false
	c.building--
	switch {
	case err != nil:
		return e.pub // unreachable: e.pub passed the same validation
	case c.entries[e.key] != e:
		c.m.tableEvicts.Add(1)
		return tab
	}
	e.tab = tab
	c.tablePushFront(e)
	c.tabled++
	for c.tabled+c.building > c.tableCap && c.tables.tprev != e {
		c.untableLocked(c.tables.tprev)
	}
	c.m.tables.Store(int64(c.tabled))
	return tab
}

// untableLocked drops e's table.
func (c *keyCache) untableLocked(e *keyEntry) {
	c.tableUnlink(e)
	e.tab = nil
	c.tabled--
	c.m.tableEvicts.Add(1)
	c.m.tables.Store(int64(c.tabled))
}

// dropLocked removes e from the key tier under every name it holds,
// and its table with it.
func (c *keyCache) dropLocked(e *keyEntry) {
	c.unlink(e)
	for _, name := range [2]string{e.key, e.alias} {
		if c.entries[name] == e {
			delete(c.entries, name)
		}
	}
	if e.tab != nil {
		c.untableLocked(e)
	}
}

// evictLocked trims the key tier's LRU tail beyond capacity, never
// evicting keep. Eviction happens only on successful inserts, so
// transient overshoot is bounded by the server's inflight cap.
func (c *keyCache) evictLocked(keep *keyEntry) {
	for c.n > c.cap {
		victim := c.head.prev
		if victim == keep {
			break
		}
		c.dropLocked(victim)
		c.m.cacheEvicts.Add(1)
	}
}

// len reports the number of resident names; an enrolled key is
// resident under two.
func (c *keyCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
