// Streammarket: maintaining a τ-LevelIndex under a stream of new product
// arrivals (the update problem of the paper's §6.2). An arrival that can
// rank top-τ joins the option pool and the index is rebuilt over it; the
// index answers MaxRank immediately, so
// a provider sees where a new product lands in the market the moment it is
// listed.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

func main() {
	// Start from an existing laptop market.
	initial := datagen.Generate(datagen.IND, 2000, 3, 5)
	start := time.Now()
	ix, err := tlx.Build(initial, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial market: %d products, %d cells, built in %v\n\n",
		len(initial), ix.NumCells(), time.Since(start))

	// Stream ten new products: a few strong contenders, a few mediocre.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10; i++ {
		product := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if i%3 == 0 { // every third arrival is a flagship
			for j := range product {
				product[j] = 0.8 + 0.2*rng.Float64()
			}
		}
		t0 := time.Now()
		id, err := ix.Insert(product)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(t0)
		if id < 0 {
			fmt.Printf("arrival %d %v: filtered (cannot rank top-%d anywhere) in %v\n",
				i, compact(product), ix.Tau(), elapsed)
			continue
		}
		rank, err := ix.MaxRank(id)
		if err != nil {
			log.Fatal(err)
		}
		if rank < 0 {
			// Survived the coarse skyband check but never actually cracks
			// the top-τ: it is tracked, yet defines no cells.
			fmt.Printf("arrival %d %v: indexed as #%d, outside the top-%d frontier (insert took %v)\n",
				i, compact(product), id, ix.Tau(), elapsed)
			continue
		}
		fmt.Printf("arrival %d %v: indexed as #%d, best achievable rank %d (insert took %v)\n",
			i, compact(product), id, rank, elapsed)
	}
	fmt.Printf("\nindex now has %d cells; level-1 market leaders: %v\n",
		ix.NumCells(), ix.LevelOptions(1))
}

func compact(p []float64) string {
	return fmt.Sprintf("(%.2f %.2f %.2f)", p[0], p[1], p[2])
}
