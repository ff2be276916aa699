package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestLocateAgreesWithTopK: the cell Locate stops in at depth k must carry
// the k-th ranked option at x — the same option TopK reports last — and the
// chain hash must be a pure function of the TopK walk (same x twice ⇒ same
// key; distinct top-k order ⇒ distinct chain with overwhelming likelihood).
func TestLocateAgreesWithTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(40)
		d := 2 + rng.Intn(2)
		tau := 2 + rng.Intn(3)
		ix := buildOrFail(t, randData(rng, n, d), Config{Algorithm: PBAPlus, Tau: tau})
		for q := 0; q < 40; q++ {
			x := randReduced(rng, d-1)
			k := 1 + rng.Intn(tau)
			key, cell, level := ix.Locate(x, k)
			if level != k {
				t.Fatalf("trial %d: Locate depth %d, want %d", trial, level, k)
			}
			top, _ := ix.TopK(x, k)
			if len(top) != k {
				t.Fatalf("trial %d: TopK returned %d options, want %d", trial, len(top), k)
			}
			if got := ix.Cells[cell].Opt; got != top[k-1] {
				t.Fatalf("trial %d: located cell option %d, TopK k-th option %d", trial, got, top[k-1])
			}
			key2, cell2, _ := ix.Locate(x, k)
			if key2 != key || cell2 != cell {
				t.Fatalf("trial %d: Locate not deterministic: (%x,%d) vs (%x,%d)",
					trial, key, cell, key2, cell2)
			}
		}
	}
}

// TestLocateCellInKSPR: the located cell must be among the cells KSPR
// reports for the located cell's own option — point location and region
// reporting must agree on which cell owns x.
func TestLocateCellInKSPR(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		n := 15 + rng.Intn(30)
		d := 2 + rng.Intn(2)
		tau := 3
		ix := buildOrFail(t, randData(rng, n, d), Config{Algorithm: PBAPlus, Tau: tau})
		for q := 0; q < 25; q++ {
			x := randReduced(rng, d-1)
			k := 1 + rng.Intn(tau)
			_, cell, level := ix.Locate(x, k)
			if level != k {
				t.Fatalf("trial %d: Locate depth %d, want %d", trial, level, k)
			}
			focal := ix.Cells[cell].Opt
			res := ix.KSPR(k, focal)
			found := false
			for _, id := range res.Cells {
				if id == cell {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: located cell %d (opt %d, k %d) not in KSPR cells %v",
					trial, cell, focal, k, res.Cells)
			}
		}
	}
}

// TestLocateKeyStability: the chain key is index-content identity, so it
// must survive a serialize/deserialize round trip unchanged and must not
// shift for existing depths when deeper levels are materialized on demand.
func TestLocateKeyStability(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, d, tau := 40, 3, 3
	ix := buildOrFail(t, randData(rng, n, d), Config{Algorithm: PBAPlus, Tau: tau})

	type probe struct {
		x   []float64
		k   int
		key uint64
	}
	var probes []probe
	for q := 0; q < 30; q++ {
		x := randReduced(rng, d-1)
		k := 1 + rng.Intn(tau)
		key, _, level := ix.Locate(x, k)
		if level != k {
			t.Fatalf("Locate depth %d, want %d", level, k)
		}
		probes = append(probes, probe{x, k, key})
	}

	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		if key, _, _ := ix2.Locate(p.x, p.k); key != p.key {
			t.Fatalf("probe %d: key changed across serialize round trip: %x vs %x", i, p.key, key)
		}
	}

	if err := ix.ExtendTau(tau + 2); err != nil {
		t.Fatal(err)
	}
	for i, p := range probes {
		if key, _, _ := ix.Locate(p.x, p.k); key != p.key {
			t.Fatalf("probe %d: key changed across extension: %x vs %x", i, p.key, key)
		}
	}
}

// TestLocateClampsDepth: k beyond τ clamps to τ — Locate is a pure read.
func TestLocateClampsDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := buildOrFail(t, randData(rng, 25, 3), Config{Algorithm: PBAPlus, Tau: 2})
	x := randReduced(rng, 2)
	_, _, level := ix.Locate(x, ix.Tau+5)
	if level != ix.Tau {
		t.Fatalf("Locate at k=%d reached level %d, want clamp to %d", ix.Tau+5, level, ix.Tau)
	}
}

// TestLocateKeyDistinguishesChains: weights whose top-k orders differ must
// (with overwhelming probability) get distinct chain keys, and weights in
// the same chain the same key — the cache-soundness direction is exercised
// end-to-end in the serve equivalence test; here we sanity-check collision
// behavior on a real index.
func TestLocateKeyDistinguishesChains(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ix := buildOrFail(t, randData(rng, 60, 3), Config{Algorithm: PBAPlus, Tau: 4})
	k := 3
	byChain := map[string]uint64{}
	for q := 0; q < 200; q++ {
		x := randReduced(rng, 2)
		top, _ := ix.TopK(x, k)
		chain := ""
		for _, o := range top {
			chain += fmt.Sprintf("%d|", o)
		}
		key, _, level := ix.Locate(x, k)
		if level != k {
			continue
		}
		if prev, ok := byChain[chain]; ok {
			if prev != key {
				t.Fatalf("same top-%d chain, different keys: %x vs %x", k, prev, key)
			}
		} else {
			for c, other := range byChain {
				if other == key && c != chain {
					t.Fatalf("distinct chains %q and %q collide on key %x", c, chain, key)
				}
			}
			byChain[chain] = key
		}
	}
	if len(byChain) < 2 {
		t.Fatalf("test vacuous: only %d distinct chains sampled", len(byChain))
	}
}
