package tlevelindex_test

import (
	"fmt"

	tlx "tlevelindex"
)

// The five-hotel dataset of the paper's Figure 2(a): each option has
// (value, service) attributes, higher is better.
var exampleHotels = [][]float64{
	{0.62, 0.76}, // 0 VibesInn
	{0.90, 0.48}, // 1 Artezen
	{0.73, 0.33}, // 2 citizenM
	{0.26, 0.64}, // 3 Yotel
	{0.30, 0.24}, // 4 Royalton
}

func ExampleBuild() {
	ix, err := tlx.Build(exampleHotels, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("cells per level:", ix.CellsPerLevel())
	// Output: cells per level: [2 4 4]
}

func ExampleIndex_TopK() {
	ix, _ := tlx.Build(exampleHotels, 3)
	top, _ := ix.TopK([]float64{0.18, 0.82}, 2)
	fmt.Println(top)
	// Output: [0 3]
}

func ExampleIndex_KSPR() {
	ix, _ := tlx.Build(exampleHotels, 3)
	res, _ := ix.KSPR(2, 0) // where does VibesInn rank top-2?
	fmt.Println("regions:", len(res.Regions), "visited:", res.Stats.VisitedCells)
	// Output: regions: 2 visited: 2
}

func ExampleIndex_UTK() {
	ix, _ := tlx.Build(exampleHotels, 3)
	res, _ := ix.UTK(3, []float64{0.35}, []float64{0.45})
	fmt.Println("options:", res.Options, "partitions:", len(res.Partitions))
	// Output: options: [0 1 2 3] partitions: 2
}

func ExampleIndex_ORU() {
	ix, _ := tlx.Build(exampleHotels, 3)
	res, _ := ix.ORU(2, []float64{0.3, 0.7}, 3)
	fmt.Printf("rho: %.2f\n", res.Rho)
	// Output: rho: 0.10
}

func ExampleIndex_MaxRank() {
	ix, _ := tlx.Build(exampleHotels, 3)
	rank, _ := ix.MaxRank(4) // Royalton can never rank top-3
	fmt.Println(rank)
	// Output: -1
}
