package dg

import (
	"sync"
	"testing"
)

// TestVerdictCacheConcurrent drives Lookup, Store and Stats from several
// goroutines over overlapping keys (run it under -race), then checks that
// the shards together hold exactly the distinct keys and counted every
// lookup once.
func TestVerdictCacheConcurrent(t *testing.T) {
	const workers, perWorker = 8, 2000
	key := func(i int) VerdictKey {
		return VerdictKey{Kind: VerdictKind(i % 3), U: int32(i % 97), V: int32(i % 89), Region: uint64(i / 7)}
	}
	distinct := make(map[VerdictKey]bool)
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			distinct[key(w*perWorker/2+i)] = true
		}
	}
	c := NewVerdictCache()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := key(w*perWorker/2 + i) // halves overlap the next worker's keys
				if v, ok := c.Lookup(k); ok && v != int8(k.Kind) {
					t.Errorf("Lookup(%+v) = %d, want %d", k, v, k.Kind)
				}
				c.Store(k, int8(k.Kind))
				if i%100 == 0 {
					c.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	hits, misses, size := c.Stats()
	if size != len(distinct) {
		t.Errorf("Stats size = %d, want %d distinct keys", size, len(distinct))
	}
	if hits+misses != workers*perWorker {
		t.Errorf("hits+misses = %d, want %d lookups", hits+misses, workers*perWorker)
	}
	for k := range distinct {
		if v, ok := c.Lookup(k); !ok || v != int8(k.Kind) {
			t.Fatalf("Lookup(%+v) = %d, %v after the stores", k, v, ok)
		}
	}
}

func TestNilVerdictCache(t *testing.T) {
	var c *VerdictCache
	c.Store(VerdictKey{U: 1}, 1)
	if _, ok := c.Lookup(VerdictKey{U: 1}); ok {
		t.Error("nil cache hit")
	}
	if h, m, s := c.Stats(); h != 0 || m != 0 || s != 0 {
		t.Errorf("nil cache Stats = %d, %d, %d", h, m, s)
	}
}
