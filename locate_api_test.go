package tlevelindex

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestLocateInvalidWeights(t *testing.T) {
	ix := buildHotels(t)
	bad := [][]float64{
		{0.5},           // wrong dimension
		{0.5, 0.2, 0.3}, // wrong dimension
		{-0.2, 1.2},     // negative entry
		{0.4, 0.4},      // sum != 1
		nil,             // empty
	}
	for _, w := range bad {
		if _, _, err := ix.Locate(w); !errors.Is(err, ErrInvalidWeights) {
			t.Errorf("Locate(%v) err = %v, want ErrInvalidWeights", w, err)
		}
		if _, _, err := ix.LocateDepth(w, 2); !errors.Is(err, ErrInvalidWeights) {
			t.Errorf("LocateDepth(%v) err = %v, want ErrInvalidWeights", w, err)
		}
	}
}

func TestLocateDepthAndString(t *testing.T) {
	ix := buildHotels(t)
	w := []float64{0.18, 0.82}
	key, level, err := ix.Locate(w)
	if err != nil {
		t.Fatal(err)
	}
	if level != ix.Tau() {
		t.Errorf("Locate level = %d, want tau %d", level, ix.Tau())
	}
	if s := key.String(); !strings.HasPrefix(s, "cell-") || len(s) != len("cell-")+16 {
		t.Errorf("String() = %q, want cell-<16 hex digits>", s)
	}
	k2, l2, err := ix.LocateDepth(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l2 != 2 {
		t.Errorf("LocateDepth level = %d, want 2", l2)
	}
	if k2 == key {
		t.Error("depth-2 key equals depth-3 key; chain keys must be depth-sensitive")
	}
	// Beyond τ the level clamps.
	_, l9, err := ix.LocateDepth(w, 9)
	if err != nil {
		t.Fatal(err)
	}
	if l9 != ix.Tau() {
		t.Errorf("LocateDepth(9) level = %d, want clamp to %d", l9, ix.Tau())
	}
}

// TestLocateEqualKeysEqualTopK is the documented contract: equal keys at
// equal depth imply equal ordered top-k answers, checked over a randomized
// index and workload.
func TestLocateEqualKeysEqualTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([][]float64, 80)
	for i := range data {
		data[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ix, err := Build(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	type group struct {
		top []int
		w   []float64
	}
	byKey := map[CellKey]group{}
	distinct := 0
	for q := 0; q < 300; q++ {
		a, b := rng.Float64(), rng.Float64()
		w := []float64{a / (a + b + 1), b / (a + b + 1), 1 / (a + b + 1)}
		key, level, err := ix.LocateDepth(w, k)
		if err != nil {
			t.Fatal(err)
		}
		if level != k {
			t.Fatalf("LocateDepth level %d, want %d", level, k)
		}
		top, err := ix.TopK(w, k)
		if err != nil {
			t.Fatal(err)
		}
		if g, ok := byKey[key]; ok {
			if !reflect.DeepEqual(g.top, top) {
				t.Fatalf("equal keys %v (w=%v vs w=%v) but top-%d %v != %v",
					key, g.w, w, k, g.top, top)
			}
		} else {
			byKey[key] = group{top: top, w: w}
			distinct++
		}
	}
	if distinct < 2 {
		t.Fatalf("test vacuous: %d distinct keys over 300 probes", distinct)
	}
}
