// Hotelfinder: the paper's motivating provider-side scenario. A hotel
// manager wants to know which customers rank his hotel top-k (kSPR /
// monochromatic reverse top-k), the best rank the hotel can ever reach
// (MaxRank), and how far a given customer's preferences are from ranking it
// top-k (why-not). One index answers all three.
package main

import (
	"fmt"
	"log"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

func main() {
	// A simulated hotel market: 5000 hotels with 4 attributes
	// (stars, rooms, facilities, price attractiveness).
	data := datagen.HotelSized(5000, 42)

	start := time.Now()
	ix, err := tlx.Build(data, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d hotels in %v (%d cells, %d KiB)\n\n",
		len(data), time.Since(start), ix.NumCells(), ix.SizeBytes()/1024)

	// Pick the manager's hotel: the one with the best achievable rank
	// among a few mid-market candidates.
	focal := -1
	for i := 100; i < 200; i++ {
		if rank, _ := ix.MaxRank(i); rank > 0 {
			focal = i
			break
		}
	}
	if focal < 0 {
		// Fall back to any indexable hotel.
		for i := range data {
			if rank, _ := ix.MaxRank(i); rank > 0 {
				focal = i
				break
			}
		}
	}
	rank, _ := ix.MaxRank(focal)
	fmt.Printf("hotel #%d (stars %.2f, rooms %.2f, facilities %.2f, price %.2f)\n",
		focal, data[focal][0], data[focal][1], data[focal][2], data[focal][3])
	fmt.Printf("best achievable rank in the market: %d\n\n", rank)

	// kSPR: the preference regions in which the hotel is a top-3 result —
	// the customer segments worth advertising to.
	qstart := time.Now()
	kspr, err := ix.KSPR(3, focal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-3 preference regions: %d (in %v)\n", len(kspr.Regions), time.Since(qstart))

	// Why-not: a specific customer profile — equal weights — does not see
	// the hotel in their top-3; how far are they from a segment that does?
	w := []float64{0.25, 0.25, 0.25, 0.25}
	wn, err := ix.WhyNot(focal, w, 3)
	if err != nil {
		log.Fatal(err)
	}
	if wn.InTopK {
		fmt.Printf("the equal-weights customer already ranks the hotel #%d\n", wn.Rank)
	} else {
		fmt.Printf("equal-weights customer ranks the hotel #%d; ", wn.Rank)
		if wn.MinShift >= 0 {
			fmt.Printf("a preference shift of %.3f would put it in their top-3\n", wn.MinShift)
		} else {
			fmt.Println("no preference ranks it top-3")
		}
	}
}
