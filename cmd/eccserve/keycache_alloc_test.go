package main

import (
	"testing"

	"repro"
)

// get looks up an entry by the string form of its name, as
// keyCacheKey and certCacheKey render it.
func (c *keyCache) get(name string, build func() (*repro.PublicKey, error)) (*repro.PublicKey, error) {
	return c.lookup([]byte(name), build)
}

// TestZeroAllocKeyCacheHit pins key-cache hits at zero allocations in
// both namespaces, over a table and over a bare resident key: the
// lookup name is built on the stack, and a string is allocated only
// when an entry is inserted.
func TestZeroAllocKeyCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := &metrics{}
	c := newKeyCache(4, m)
	keys := makeTestKeys(t, 2, 78)
	identity := []byte("node-17")
	cert := keys[0].raw // any 31 bytes name a certificate here
	pub, err := repro.NewPublicKey(keys[0].raw)
	if err != nil {
		t.Fatal(err)
	}
	c.put(pub, certCacheKey(cert, identity), keyCacheKey(keys[0].raw)) // as an enrollment does
	noBuild := func() (*repro.PublicKey, error) {
		t.Fatal("a hit ran its build")
		return nil, nil
	}
	getKey := func(raw []byte) func() {
		return func() {
			if _, err := c.getKey(raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	getCert := func() {
		if _, err := c.getCert(cert, identity, noBuild); err != nil {
			t.Fatal(err)
		}
	}
	// Enough uses under the two names of the enrolled key to earn it
	// its table.
	for i := 0; i < admitUses; i++ {
		getKey(keys[0].raw)()
		getCert()
	}
	if tableOf(c, keys[0]) == nil {
		t.Fatal("the enrolled key did not earn a table")
	}
	// The second key is resident after one miss; three more lookups
	// stay below admitUses, so they are key-tier hits without a build.
	getKey(keys[1].raw)()
	misses := m.cacheMisses.Load()
	for _, tc := range []struct {
		name string
		runs int
		f    func()
	}{
		{"key name, table", 100, getKey(keys[0].raw)},
		{"cert name, table", 100, getCert},
		{"key name, no table", 2, getKey(keys[1].raw)},
	} {
		hits := m.cacheHits.Load()
		if avg := testing.AllocsPerRun(tc.runs, tc.f); avg != 0 {
			t.Errorf("%s: a hit allocates %v", tc.name, avg)
		}
		if got := m.cacheHits.Load() - hits; got != int64(tc.runs+1) {
			t.Errorf("%s: %d hits for %d lookups", tc.name, got, tc.runs+1)
		}
	}
	if m.cacheMisses.Load() != misses || tableOf(c, keys[1]) != nil {
		t.Fatal("the measured lookups were not all hits without a build")
	}
}
