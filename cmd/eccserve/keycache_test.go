package main

import (
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"

	"repro"
	"repro/internal/frame"
)

// testKey is a verification key with a signature over testDigest, so
// every key the cache hands back can be checked end to end.
type testKey struct {
	raw []byte
	sig *repro.Signature
}

var testDigest = sha256.Sum256([]byte("key cache"))

func makeTestKeys(t *testing.T, n int, seed int64) []testKey {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	ks := make([]testKey, n)
	for i := range ks {
		priv, err := repro.GenerateKey(rnd)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := repro.SignDeterministic(priv, testDigest[:])
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = testKey{priv.PublicKey().BytesCompressed(), sig}
	}
	return ks
}

// lookup fetches k through the cache and checks the key it gets back
// verifies k's signature.
func lookup(t *testing.T, c *keyCache, k testKey) *repro.PublicKey {
	t.Helper()
	pub, err := c.getKey(k.raw)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Verify(testDigest[:], k.sig) {
		t.Fatal("cached key does not verify its signature")
	}
	return pub
}

// tableOf returns the table-carrying key resident for k, or nil.
func tableOf(c *keyCache, k testKey) *repro.PublicKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[keyCacheKey(k.raw)]; e != nil {
		return e.tab
	}
	return nil
}

// checkTableTier asserts the table tier's bookkeeping: the gauge
// matches the resident tables, stays within capacity, and equals
// builds minus evictions; no build is left in flight.
func checkTableTier(t *testing.T, c *keyCache, m *metrics) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.tables.tnext; e != &c.tables; e = e.tnext {
		if e.tab == nil {
			t.Fatal("table-tier list holds an entry without a table")
		}
		n++
	}
	if n != c.tabled || int64(n) != m.tables.Load() || n > c.tableCap {
		t.Fatalf("tables: %d listed, %d counted, gauge %d, capacity %d", n, c.tabled, m.tables.Load(), c.tableCap)
	}
	if got := m.tableBuilds.Load() - m.tableEvicts.Load(); got != int64(n) {
		t.Fatalf("table builds − evictions = %d, want %d resident", got, n)
	}
	if c.building != 0 {
		t.Fatalf("%d table builds still counted in flight", c.building)
	}
	if c.n > c.cap {
		t.Fatalf("key tier holds %d entries, capacity %d", c.n, c.cap)
	}
}

// TestKeyCacheUniformOverCapacity is cert-fleet's shape: uniform
// lookups over three times as many keys as table slots. The key tier
// holds them all, so only first lookups miss; the table tier fills
// once and then mostly declines, where an all-tables LRU would build
// on two lookups in three.
func TestKeyCacheUniformOverCapacity(t *testing.T) {
	const tables = 16
	m := &metrics{}
	c := newKeyCache(tables, m)
	keys := makeTestKeys(t, 3*tables, 21)
	rnd := rand.New(rand.NewSource(22))
	seen := make([]bool, len(keys))
	for i := 0; i < 50*tables; i++ {
		j := rnd.Intn(len(keys))
		misses := m.cacheMisses.Load()
		lookup(t, c, keys[j])
		if seen[j] && m.cacheMisses.Load() != misses {
			t.Fatalf("lookup %d: key %d missed after its first lookup", i, j)
		}
		seen[j] = true
	}
	t.Logf("%d table builds, %d table evictions, %d declines", m.tableBuilds.Load(), m.tableEvicts.Load(), m.tableDeclines.Load())
	if b := m.tableBuilds.Load(); b >= 2*tables {
		t.Fatalf("%d table builds over %d lookups, want fewer than %d", b, 50*tables, 2*tables)
	}
	if m.tables.Load() == 0 {
		t.Fatal("no key earned a table")
	}
	checkTableTier(t, c, m)
}

// TestKeyCacheTableOnFifthUse is verify-hot's shape, four keys: each
// earns its table on its fifth use and not before, and the lookup
// that earns it already verifies over it.
func TestKeyCacheTableOnFifthUse(t *testing.T) {
	m := &metrics{}
	c := newKeyCache(1024, m)
	keys := makeTestKeys(t, 4, 31)
	for use := 1; use <= 7; use++ {
		for i, k := range keys {
			pub := lookup(t, c, k)
			tab := tableOf(c, k)
			switch {
			case use < admitUses && tab != nil:
				t.Fatalf("key %d holds a table after %d uses", i, use)
			case use >= admitUses && (tab == nil || pub != tab):
				t.Fatalf("key %d, use %d: table %v, served the tabled key %v", i, use, tab != nil, pub == tab)
			}
		}
	}
	if b := m.tableBuilds.Load(); b != int64(len(keys)) {
		t.Fatalf("%d table builds, want %d", b, len(keys))
	}
	checkTableTier(t, c, m)
}

// TestKeyCacheHotSetMoves: once the keys holding every table go
// quiet, a new hot set displaces them within a few decay periods.
func TestKeyCacheHotSetMoves(t *testing.T) {
	const tables = 4
	m := &metrics{}
	c := newKeyCache(tables, m)
	keys := makeTestKeys(t, 2*tables, 41)
	old, hot := keys[:tables], keys[tables:]
	for r := 0; r < 4*decayPeriod; r++ {
		for _, k := range old {
			lookup(t, c, k)
		}
	}
	for i, k := range old {
		if tableOf(c, k) == nil {
			t.Fatalf("old hot key %d holds no table", i)
		}
	}
	// A round is `tables` lookups, so decayPeriod rounds make one decay
	// period.
	periods := 0
	for ; periods < 4; periods++ {
		for r := 0; r < decayPeriod; r++ {
			for _, k := range hot {
				lookup(t, c, k)
			}
		}
		won := 0
		for _, k := range hot {
			if tableOf(c, k) != nil {
				won++
			}
		}
		if won == len(hot) {
			break
		}
	}
	t.Logf("the new hot set won every table in decay period %d", periods+1)
	if periods == 4 {
		t.Fatal("the new hot set did not win every table within 4 decay periods")
	}
	for i, k := range old {
		if tableOf(c, k) != nil {
			t.Fatalf("quiet key %d kept its table", i)
		}
	}
	if m.tableDeclines.Load() == 0 {
		t.Fatal("no admission was declined while the old set still counted")
	}
	checkTableTier(t, c, m)
}

// TestKeyCacheOneShotKeysBuildNoTable: a stream of distinct keys, each
// used once, costs a parse each and never a table, even as it churns
// the key tier.
func TestKeyCacheOneShotKeysBuildNoTable(t *testing.T) {
	m := &metrics{}
	c := newKeyCache(1, m)
	keys := makeTestKeys(t, 3*keyTierRatio, 51)
	for _, k := range keys {
		lookup(t, c, k)
	}
	if b := m.tableBuilds.Load(); b != 0 {
		t.Fatalf("%d table builds for one-shot keys, want 0", b)
	}
	if got, want := m.cacheMisses.Load(), int64(len(keys)); got != want {
		t.Fatalf("cacheMisses = %d, want %d", got, want)
	}
	if got, want := m.cacheEvicts.Load(), int64(len(keys)-keyTierRatio); got != want {
		t.Fatalf("cacheEvicts = %d, want %d", got, want)
	}
	checkTableTier(t, c, m)
}

// TestKeyCacheEvictionDropsTable: a key-tier eviction takes the
// entry's table with it.
func TestKeyCacheEvictionDropsTable(t *testing.T) {
	m := &metrics{}
	c := newKeyCache(1, m) // key tier: keyTierRatio entries
	keys := makeTestKeys(t, 1+keyTierRatio, 61)
	tabled, rest := keys[0], keys[1:]
	for use := 0; use < admitUses; use++ {
		lookup(t, c, tabled)
	}
	if tableOf(c, tabled) == nil || m.tables.Load() != 1 {
		t.Fatal("key holds no table after admitUses uses")
	}
	for _, k := range rest[:keyTierRatio-1] {
		lookup(t, c, k)
	}
	if m.cacheEvicts.Load() != 0 || m.tables.Load() != 1 {
		t.Fatalf("full key tier: evictions %d, tables %d, want 0 and 1", m.cacheEvicts.Load(), m.tables.Load())
	}
	lookup(t, c, rest[keyTierRatio-1]) // evicts the least recent: tabled
	if m.cacheEvicts.Load() != 1 {
		t.Fatalf("cacheEvicts = %d, want 1", m.cacheEvicts.Load())
	}
	if m.tables.Load() != 0 || m.tableEvicts.Load() != 1 {
		t.Fatalf("tables %d, table evictions %d, want 0 and 1", m.tables.Load(), m.tableEvicts.Load())
	}
	checkTableTier(t, c, m)
	misses := m.cacheMisses.Load()
	if lookup(t, c, tabled); m.cacheMisses.Load() != misses+1 {
		t.Fatal("evicted key was still resident")
	}
}

// TestKeyCacheConcurrentMix runs 32 goroutines of hits, misses,
// admissions, evictions, enrollments and malformed keys against a
// small cache; every key handed back must verify its signature, and
// the books must balance afterwards.
func TestKeyCacheConcurrentMix(t *testing.T) {
	const (
		goroutines = 32
		perG       = 60
	)
	m := &metrics{}
	c := newKeyCache(2, m)
	keys := makeTestKeys(t, 3*keyTierRatio, 71)
	hot := keys[:3]
	bad := make([][]byte, 4)
	for i := range bad {
		bad[i] = make([]byte, frame.KeySize)
		bad[i][0] = 0x05 // no such encoding prefix
		bad[i][1] = byte(i)
	}

	var wg sync.WaitGroup
	var lookups sync.Map
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			n := 0
			for i := 0; i < perG; i++ {
				var k testKey
				switch d := rnd.Intn(20); {
				case d < 2:
					if _, err := c.getKey(bad[rnd.Intn(len(bad))]); err == nil {
						t.Error("malformed key parsed")
						return
					}
					n++
					continue
				case d < 3:
					// An enrollment: warm both names of a key.
					k = keys[rnd.Intn(len(keys))]
					pub, err := repro.NewPublicKey(k.raw)
					if err != nil {
						t.Error(err)
						return
					}
					c.put(pub, "c"+string(k.raw), keyCacheKey(k.raw))
					continue
				case d < 12:
					k = hot[rnd.Intn(len(hot))]
				default:
					k = keys[rnd.Intn(len(keys))]
				}
				var pub *repro.PublicKey
				var err error
				if rnd.Intn(4) == 0 {
					// The certificate name of the same key.
					pub, err = c.get("c"+string(k.raw), func() (*repro.PublicKey, error) {
						return repro.NewPublicKey(k.raw)
					})
				} else {
					pub, err = c.getKey(k.raw)
				}
				n++
				if err != nil {
					t.Error(err)
					return
				}
				if !pub.Verify(testDigest[:], k.sig) {
					t.Error("cached key does not verify its signature")
					return
				}
			}
			lookups.Store(g, n)
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	total := int64(0)
	lookups.Range(func(_, v any) bool { total += int64(v.(int)); return true })
	if got := m.cacheHits.Load() + m.cacheMisses.Load() + m.cacheWaitFails.Load(); got != total {
		t.Fatalf("hits+misses+wait failures = %d, want %d lookups", got, total)
	}
	if m.tableBuilds.Load() == 0 || m.cacheEvicts.Load() == 0 {
		t.Fatalf("mix reached no admission (%d) or no eviction (%d)", m.tableBuilds.Load(), m.cacheEvicts.Load())
	}
	checkTableTier(t, c, m)
	c.mu.Lock()
	defer c.mu.Unlock()
	names := 0
	for e := c.head.next; e != &c.head; e = e.next {
		for _, name := range [2]string{e.key, e.alias} {
			if name != "" {
				if c.entries[name] != e {
					t.Fatalf("name %q does not map to its entry", name)
				}
				names++
			}
		}
	}
	if names != len(c.entries) {
		t.Fatalf("%d names on the list, %d in the map", names, len(c.entries))
	}
}
