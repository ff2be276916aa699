package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutBasics(t *testing.T) {
	c := New(64)
	k := Key{Family: "topk", Cell: 0xdeadbeef, K: 3}
	if _, ok := c.Get(k, 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 1, []int{4, 2})
	v, ok := c.Get(k, 1)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got := v.([]int); got[0] != 4 || got[1] != 2 {
		t.Fatalf("wrong value %v", got)
	}
}

// TestLSNInvalidation: an entry stamped at LSN n must not be served at any
// other LSN — this is the whole soundness story.
func TestLSNInvalidation(t *testing.T) {
	c := New(64)
	k := Key{Family: "kspr", K: 2, Params: "focal=7"}
	c.Put(k, 5, "answer@5")
	if _, ok := c.Get(k, 6); ok {
		t.Fatal("served a pre-insert answer at a newer LSN")
	}
	if _, ok := c.Get(k, 4); ok {
		t.Fatal("served an answer at an older LSN")
	}
	if v, ok := c.Get(k, 5); !ok || v != "answer@5" {
		t.Fatal("lost the answer at its own LSN")
	}
	// Refill at the new LSN replaces the stale entry in place.
	c.Put(k, 6, "answer@6")
	if v, ok := c.Get(k, 6); !ok || v != "answer@6" {
		t.Fatal("refill at new LSN not served")
	}
	if _, ok := c.Get(k, 5); ok {
		t.Fatal("refill at LSN 6 still serves the LSN 5 answer")
	}
}

func TestKeyComponentsDistinguish(t *testing.T) {
	c := New(256)
	base := Key{Family: "topk", Cell: 1, K: 2, Params: ""}
	c.Put(base, 1, "base")
	variants := []Key{
		{Family: "kspr", Cell: 1, K: 2},
		{Family: "topk", Cell: 2, K: 2},
		{Family: "topk", Cell: 1, K: 3},
		{Family: "topk", Cell: 1, K: 2, Params: "m=4"},
	}
	for _, k := range variants {
		if _, ok := c.Get(k, 1); ok {
			t.Fatalf("key %+v aliased with %+v", k, base)
		}
	}
}

func TestCapacityEviction(t *testing.T) {
	c := New(numShards) // one entry per shard
	for i := 0; i < 200; i++ {
		c.Put(Key{Family: "topk", Cell: uint64(i)}, 1, i)
	}
	resident := 0
	for i := 0; i < 200; i++ {
		if _, ok := c.Get(Key{Family: "topk", Cell: uint64(i)}, 1); ok {
			resident++
		}
	}
	if resident > numShards {
		t.Fatalf("resident entries %d exceed capacity %d", resident, numShards)
	}
	if resident == 0 {
		t.Fatal("cache emptied itself")
	}
}

// TestConcurrentMixed hammers all operations from many goroutines; run
// under -race this is the cache's data-race check.
func TestConcurrentMixed(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Family: "topk", Cell: uint64(i % 37), K: g % 3}
				lsn := uint64(i % 5)
				if i%3 == 0 {
					c.Put(k, lsn, fmt.Sprintf("v%d", i))
				} else {
					if v, ok := c.Get(k, lsn); ok {
						if _, isStr := v.(string); !isStr {
							t.Errorf("corrupt value %v", v)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkGetHit measures the hit path; the acceptance criterion is that a
// hit allocates nothing beyond the answer copy the caller makes — here the
// value is returned shared, so the path must be zero-alloc.
func BenchmarkGetHit(b *testing.B) {
	c := New(1024)
	k := Key{Family: "topk", Cell: 42, K: 3, Params: ""}
	c.Put(k, 7, []int{1, 2, 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k, 7); !ok {
			b.Fatal("miss")
		}
	}
}

// TestGetMulti: the batched lookup must agree with per-key Get — same
// values, same hits — across shard collisions, duplicates, and LSN
// staleness.
func TestGetMulti(t *testing.T) {
	c := New(256)
	keys := make([]Key, 12)
	for i := range keys {
		keys[i] = Key{Family: "topk", Cell: uint64(i % 5), K: 3}
	}
	c.Put(keys[0], 7, "a")
	c.Put(keys[1], 7, "b")
	c.Put(keys[2], 9, "stale") // wrong LSN: must miss
	vals := make([]any, len(keys))
	oks := make([]bool, len(keys))
	c.GetMulti(keys, 7, vals, oks)
	for i := range keys {
		want, wantOK := c.Get(keys[i], 7)
		if oks[i] != wantOK || vals[i] != want {
			t.Fatalf("key %d: GetMulti (%v,%v) != Get (%v,%v)", i, vals[i], oks[i], want, wantOK)
		}
	}
	// Cells 0 and 1 hit (keys 0, 1, 5, 6, 10, 11); cell 2 is stale (keys 2
	// and 7); cells 3 and 4 miss.
	want := []bool{true, true, false, false, false, true, true, false, false, false, true, true}
	for i := range oks {
		if oks[i] != want[i] {
			t.Fatalf("GetMulti hits %v, want %v", oks, want)
		}
	}
	// Empty batch is a no-op.
	c.GetMulti(nil, 7, nil, nil)
}
