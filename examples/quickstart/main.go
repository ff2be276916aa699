// Quickstart: build a τ-LevelIndex over the paper's five-hotel example
// (Figure 2) and run each query type once.
package main

import (
	"fmt"
	"log"

	tlx "tlevelindex"
)

func main() {
	// Five hotels with (value, service) attributes, higher is better —
	// exactly Figure 2(a) of the paper.
	hotels := [][]float64{
		{0.62, 0.76}, // 0 VibesInn
		{0.90, 0.48}, // 1 Artezen
		{0.73, 0.33}, // 2 citizenM
		{0.26, 0.64}, // 3 Yotel
		{0.30, 0.24}, // 4 Royalton
	}
	names := []string{"VibesInn", "Artezen", "citizenM", "Yotel", "Royalton"}

	// Build a 3-LevelIndex: ranking positions 1..3 are precomputed for the
	// whole continuous preference space.
	ix, err := tlx.Build(hotels, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built 3-LevelIndex: %d cells, %d bytes, cells per level %v\n\n",
		ix.NumCells(), ix.SizeBytes(), ix.CellsPerLevel())

	// Top-k point query: a user who cares about service four times as much
	// as value (the paper's w = (0.18, 0.82) example).
	top, err := ix.TopK([]float64{0.18, 0.82}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-2 for w=(0.18, 0.82): %s, %s\n", names[top[0]], names[top[1]])

	// kSPR: where in preference space does VibesInn rank top-2?
	kspr, err := ix.KSPR(2, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VibesInn ranks top-2 in %d preference regions\n", len(kspr.Regions))

	// UTK: which hotels can be top-3 for users weighing value in
	// [0.35, 0.45]?
	utk, err := ix.UTK(3, []float64{0.35}, []float64{0.45})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("top-3 candidates for value-weight in [0.35, 0.45]: ")
	for i, o := range utk.Options {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(names[o])
	}
	fmt.Printf(" (%d partitions)\n", len(utk.Partitions))

	// ORU: three hotels, each top-2 for some user near w = (0.3, 0.7).
	oru, err := ix.ORU(2, []float64{0.3, 0.7}, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("3 hotels shortlisted around w=(0.3, 0.7): ")
	for i, o := range oru.Options {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(names[o])
	}
	fmt.Printf(" (needed expansion rho=%.2f)\n", oru.Rho)

	// MaxRank: the best rank each hotel can ever achieve.
	fmt.Println("\nbest achievable rank per hotel (−1: never top-3):")
	for i, name := range names {
		rank, err := ix.MaxRank(i)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %d\n", name, rank)
	}
}
