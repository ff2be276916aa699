package main

import (
	"fmt"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// distFlag is the -dist value: which preference-vector workload the batch
// experiment runs ("uniform", "clustered", "correlated", or "all").
var distFlag string

// expBatch measures the public batch API against one-query-at-a-time
// execution over the same preference stream (DESIGN.md §18). A batch runs
// the single-query walk per item, so expect parity whatever the preference
// distribution: the ratio shows the batch wrapper's own cost, not a shared
// traversal.
func expBatch(sc scale) {
	data := datagen.Generate(datagen.IND, sc.defaultN, sc.defaultD, 1)
	ix, _ := buildTimed(data, sc.queryTau, tlx.PBAPlus)
	k := sc.defaultK
	const batch = 64
	count := sc.queries * 200
	count -= count % batch

	dists := []datagen.PrefDist{datagen.PrefUniform, datagen.PrefClustered, datagen.PrefCorrelated}
	if distFlag != "all" {
		d, err := datagen.ParsePrefDist(distFlag)
		if err != nil {
			fmt.Println(" ", err)
			return
		}
		dists = []datagen.PrefDist{d}
	}

	header := []string{"workload", "single/q", "batch/q", "speedup"}
	var rows [][]string
	for _, dist := range dists {
		ws := datagen.Preferences(dist, count, sc.defaultD, 17)

		// Best-of-3: single-shot wall timings on a shared box swing far more
		// than the effect under measurement.
		single, batched := time.Duration(1<<62), time.Duration(1<<62)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for _, w := range ws {
				if _, err := ix.TopK(w, k); err != nil {
					panic(err)
				}
			}
			if el := time.Since(start); el < single {
				single = el
			}
			start = time.Now()
			for off := 0; off < count; off += batch {
				items, err := ix.TopKBatch(ws[off:off+batch], k)
				if err != nil {
					panic(err)
				}
				for i := range items {
					if items[i].Err != nil {
						panic(items[i].Err)
					}
				}
			}
			if el := time.Since(start); el < batched {
				batched = el
			}
		}

		rows = append(rows, []string{
			dist.String(),
			fmtDur(single / time.Duration(count)),
			fmtDur(batched / time.Duration(count)),
			fmt.Sprintf("%.2fx", float64(single)/float64(batched)),
		})
	}
	printTable(header, rows)
}
