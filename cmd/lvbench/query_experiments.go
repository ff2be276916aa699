package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	tlx "tlevelindex"
	"tlevelindex/baseline"
	"tlevelindex/datagen"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/skyline"
)

// workload bundles a dataset with the query parameters drawn for it.
type workload struct {
	data   [][]float64
	dim    int // reduced dimension
	focals []int
	points [][]float64 // reduced weights for ORU / top-k
	boxes  [][2][]float64
}

// newWorkload draws the paper's query workloads: focal options from the
// skyband (options that can actually rank), random preference points, and
// boxes whose volume is σ=1% of the preference simplex.
func newWorkload(data [][]float64, k, count int, seed int64) *workload {
	rng := rand.New(rand.NewSource(seed))
	d := len(data[0])
	w := &workload{data: data, dim: d - 1}
	sky := skyline.Skyband(data, k)
	for i := 0; i < count; i++ {
		w.focals = append(w.focals, sky[rng.Intn(len(sky))])
		w.points = append(w.points, randReduced(rng, d-1))
		lo, hi := sigmaBox(rng, d-1)
		w.boxes = append(w.boxes, [2][]float64{lo, hi})
	}
	return w
}

func randReduced(rng *rand.Rand, dim int) []float64 {
	e := make([]float64, dim+1)
	s := 0.0
	for i := range e {
		e[i] = -math.Log(math.Max(rng.Float64(), 1e-15))
		s += e[i]
	}
	x := make([]float64, dim)
	for i := range x {
		x[i] = e[i] / s
	}
	return x
}

// sigmaBox returns a box of volume 1% of the reduced simplex (volume
// 1/dim!), centered at a random simplex point and clipped to [0, 1].
func sigmaBox(rng *rand.Rand, dim int) (lo, hi []float64) {
	vol := 0.01
	for i := 2; i <= dim; i++ {
		vol /= float64(i)
	}
	side := math.Pow(vol, 1/float64(dim))
	c := randReduced(rng, dim)
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	for j := 0; j < dim; j++ {
		lo[j] = math.Max(0, c[j]-side/2)
		hi[j] = lo[j] + side
	}
	return lo, hi
}

// measured holds an averaged measurement.
type measured struct {
	t       time.Duration
	visited float64
}

func (m measured) String() string { return fmtDur(m.t) }

func measureKSPRIndex(ix *tlx.Index, k int, w *workload) measured {
	var total time.Duration
	var visited int
	for _, f := range w.focals {
		start := time.Now()
		res, err := ix.KSPR(k, f)
		if err != nil {
			panic(err)
		}
		total += time.Since(start)
		visited += res.Stats.VisitedCells
	}
	n := len(w.focals)
	return measured{total / time.Duration(n), float64(visited) / float64(n)}
}

// measureKSPRExtended is measureKSPRIndex on an index first deepened to k
// by ExtendTau when k > τ, the extension's time spread over the kSPR
// queries: the cost the first query past τ paid when queries extended the
// index themselves.
func measureKSPRExtended(ix *tlx.Index, k int, w *workload) measured {
	var ext time.Duration
	if k > ix.Tau() {
		start := time.Now()
		if err := ix.ExtendTau(k); err != nil {
			panic(err)
		}
		ext = time.Since(start)
	}
	m := measureKSPRIndex(ix, k, w)
	m.t += ext / time.Duration(len(w.focals))
	return m
}

func measureKSPRBaseline(w *workload, k int) measured {
	var total time.Duration
	for _, f := range w.focals {
		start := time.Now()
		baseline.LPCTA(w.data, f, k)
		total += time.Since(start)
	}
	return measured{t: total / time.Duration(len(w.focals))}
}

func measureUTKIndex(ix *tlx.Index, k int, w *workload) measured {
	var total time.Duration
	var visited int
	for _, b := range w.boxes {
		start := time.Now()
		res, err := ix.UTK(k, b[0], b[1])
		if err != nil {
			panic(err)
		}
		total += time.Since(start)
		visited += res.Stats.VisitedCells
	}
	n := len(w.boxes)
	return measured{total / time.Duration(n), float64(visited) / float64(n)}
}

func measureUTKBaseline(brs *baseline.BRS, k int, w *workload) measured {
	var total time.Duration
	for _, b := range w.boxes {
		start := time.Now()
		baseline.JAA(brs, geom.NewBox(b[0], b[1]), k)
		total += time.Since(start)
	}
	return measured{t: total / time.Duration(len(w.boxes))}
}

func measureORUIndex(ix *tlx.Index, k, m int, w *workload) measured {
	var total time.Duration
	var visited int
	for _, x := range w.points {
		full := make([]float64, 0, w.dim+1)
		sum := 0.0
		for _, v := range x {
			full = append(full, v)
			sum += v
		}
		full = append(full, 1-sum)
		start := time.Now()
		res, err := ix.ORU(k, full, m)
		if err != nil {
			panic(err)
		}
		total += time.Since(start)
		visited += res.Stats.VisitedCells
	}
	n := len(w.points)
	return measured{total / time.Duration(n), float64(visited) / float64(n)}
}

func measureORUBaseline(brs *baseline.BRS, k, m int, w *workload) measured {
	var total time.Duration
	for _, x := range w.points {
		start := time.Now()
		baseline.ORU(brs, x, k, m)
		total += time.Since(start)
	}
	return measured{t: total / time.Duration(len(w.points))}
}

// queryTriple runs the three representative queries for one dataset and
// returns the six measurements (index and baseline per query). High
// dimensionalities use fewer repetitions: the ORU baseline alone runs tens
// of seconds per query there.
func queryTriple(sc scale, data [][]float64, tau, k int) (ksprIx, ksprBl, utkIx, utkBl, oruIx, oruBl measured) {
	reps := sc.queries
	if len(data[0]) >= 4 {
		reps = (sc.queries + 2) / 3
	}
	w := newWorkload(data, k, reps, 11)
	ix, _ := buildTimed(data, tau, tlx.PBAPlus)
	brs := baseline.NewBRS(data)
	m := 2 * k
	ksprIx = measureKSPRIndex(ix, k, w)
	ksprBl = measureKSPRBaseline(w, k)
	utkIx = measureUTKIndex(ix, k, w)
	utkBl = measureUTKBaseline(brs, k, w)
	oruIx = measureORUIndex(ix, k, m, w)
	oruBl = measureORUBaseline(brs, k, m, w)
	return
}

// expFig12 — query response time versus cardinality.
func expFig12(sc scale) {
	header := []string{"n", "kSPR idx", "kSPR LP-CTA", "UTK idx", "UTK JAA", "ORU idx", "ORU bl"}
	var rows [][]string
	for _, n := range sc.ns {
		data := datagen.Generate(datagen.IND, n, sc.defaultD, 1)
		a, b, c, d, e, f := queryTriple(sc, data, sc.queryTau, sc.defaultK)
		rows = append(rows, []string{fmt.Sprintf("%d", n),
			a.String(), b.String(), c.String(), d.String(), e.String(), f.String()})
	}
	printTable(header, rows)
}

// expFig13 — query response time versus dimensionality.
func expFig13(sc scale) {
	header := []string{"d", "kSPR idx", "kSPR LP-CTA", "UTK idx", "UTK JAA", "ORU idx", "ORU bl"}
	var rows [][]string
	for _, d := range sc.ds {
		// The d sweep runs at the reduced d-sweep cardinality: cell counts
		// (and with them every build and query cost) grow super-linearly
		// with d, exactly as Figure 10(b) reports.
		n := sc.defaultN
		tau := sc.queryTau
		if d >= 4 {
			n = sc.dSweepN
			tau = min(sc.queryTau, 5)
		}
		data := datagen.Generate(datagen.IND, n, d, 1)
		k := min(sc.defaultK, tau)
		a, b, c, dd, e, f := queryTriple(sc, data, tau, k)
		rows = append(rows, []string{fmt.Sprintf("%d", d),
			a.String(), b.String(), c.String(), dd.String(), e.String(), f.String()})
	}
	printTable(header, rows)
}

// expFig14 — effect of k with a fixed-τ index; k beyond τ switches the
// index to lookup-based computation (the paper's dotted line): an explicit
// ExtendTau(k) before the queries.
func expFig14(sc scale) {
	data := datagen.Generate(datagen.IND, sc.defaultN, sc.defaultD, 1)
	header := []string{"k", "regime", "kSPR idx", "kSPR LP-CTA", "UTK idx", "UTK JAA", "ORU idx", "ORU bl"}
	var rows [][]string
	brs := baseline.NewBRS(data)
	for _, k := range sc.ks {
		// Fresh τ-level index per k, so a k past τ pays its ExtendTau.
		ix, _ := buildTimed(data, sc.queryTau, tlx.PBAPlus)
		w := newWorkload(data, k, sc.queries, 11)
		regime := "lookup"
		if k > sc.queryTau {
			regime = "lookup+compute"
		}
		m := 2 * k
		rows = append(rows, []string{
			fmt.Sprintf("%d", k), regime,
			measureKSPRExtended(ix, k, w).String(),
			measureKSPRBaseline(w, k).String(),
			measureUTKIndex(ix, k, w).String(),
			measureUTKBaseline(brs, k, w).String(),
			measureORUIndex(ix, k, m, w).String(),
			measureORUBaseline(brs, k, m, w).String(),
		})
	}
	fmt.Printf("(tau = %d)\n", sc.queryTau)
	printTable(header, rows)
}

// expFig15 — effect of τ with fixed k: more precomputed levels, less
// per-query computation.
func expFig15(sc scale) {
	data := datagen.Generate(datagen.IND, sc.defaultN, sc.defaultD, 1)
	k := sc.queryTau
	header := []string{"tau", "kSPR idx", "UTK idx"}
	var rows [][]string
	for _, tau := range sc.taus {
		ix, _ := buildTimed(data, tau, tlx.PBAPlus)
		w := newWorkload(data, k, sc.queries, 11)
		rows = append(rows, []string{
			fmt.Sprintf("%d", tau),
			measureKSPRExtended(ix, k, w).String(),
			measureUTKIndex(ix, k, w).String(),
		})
	}
	fmt.Printf("(k = %d; tau < k pays ExtendTau(k) in its kSPR column)\n", k)
	printTable(header, rows)
}

// expFig16 — UTK on the simulated real datasets and ORU across synthetic
// distributions.
func expFig16(sc scale) {
	fmt.Println("-- Figure 16 (a: UTK on real datasets) --")
	header := []string{"dataset", "UTK idx", "UTK JAA"}
	var rows [][]string
	reals := []struct {
		name string
		data [][]float64
		tau  int
	}{
		{"HOTEL", datagen.HotelSized(sc.hotelN, 1), sc.defaultTau},
		{"HOUSE", datagen.HouseSized(sc.houseN, 1), 3},
		{"NBA", datagen.NBASized(sc.nbaN, 1), 2},
	}
	for _, r := range reals {
		k := min(sc.defaultK, r.tau)
		ix, _ := buildTimed(r.data, r.tau, tlx.PBAPlus)
		brs := baseline.NewBRS(r.data)
		w := newWorkload(r.data, k, sc.queries, 11)
		rows = append(rows, []string{
			fmt.Sprintf("%s(n=%d,k=%d)", r.name, len(r.data), k),
			measureUTKIndex(ix, k, w).String(),
			measureUTKBaseline(brs, k, w).String(),
		})
	}
	printTable(header, rows)

	fmt.Println("-- Figure 16 (b: ORU on synthetic distributions) --")
	header = []string{"distribution", "ORU idx", "ORU baseline"}
	rows = nil
	for _, dist := range []datagen.Distribution{datagen.COR, datagen.IND, datagen.ANTI} {
		n := sc.defaultN
		if dist == datagen.ANTI {
			n = min(n, 2*sc.ibaMaxN)
		}
		data := datagen.Generate(dist, n, sc.defaultD, 1)
		ix, _ := buildTimed(data, sc.defaultTau, tlx.PBAPlus)
		brs := baseline.NewBRS(data)
		k := min(sc.defaultK, sc.defaultTau)
		w := newWorkload(data, k, sc.queries, 11)
		rows = append(rows, []string{
			fmt.Sprintf("%v(n=%d)", dist, n),
			measureORUIndex(ix, k, 2*k, w).String(),
			measureORUBaseline(brs, k, 2*k, w).String(),
		})
	}
	printTable(header, rows)
}

// expTable5 — average visited cells per query across n and d sweeps. kSPR
// reads its answer from the option→cells column and UTK scans level k's box
// column instead of walking, so their columns are cells reported and cells
// whose box meets the query box, not the paper's visit counts.
func expTable5(sc scale) {
	header := []string{"sweep", "kSPR (cells read)", "UTK (box candidates)", "ORU"}
	var rows [][]string
	for _, n := range sc.ns {
		data := datagen.Generate(datagen.IND, n, sc.defaultD, 1)
		ix, _ := buildTimed(data, sc.queryTau, tlx.PBAPlus)
		k := sc.defaultK
		w := newWorkload(data, k, sc.queries, 11)
		rows = append(rows, []string{
			fmt.Sprintf("n=%d", n),
			fmt.Sprintf("%.0f", measureKSPRIndex(ix, k, w).visited),
			fmt.Sprintf("%.0f", measureUTKIndex(ix, k, w).visited),
			fmt.Sprintf("%.0f", measureORUIndex(ix, k, 2*k, w).visited),
		})
	}
	for _, d := range sc.ds {
		n := sc.defaultN
		tau := sc.queryTau
		if d >= 4 {
			n = sc.dSweepN
			tau = min(sc.queryTau, 5)
		}
		data := datagen.Generate(datagen.IND, n, d, 1)
		k := min(sc.defaultK, tau)
		ix, _ := buildTimed(data, tau, tlx.PBAPlus)
		reps := sc.queries
		if d >= 4 {
			reps = (sc.queries + 2) / 3
		}
		w := newWorkload(data, k, reps, 11)
		rows = append(rows, []string{
			fmt.Sprintf("d=%d", d),
			fmt.Sprintf("%.0f", measureKSPRIndex(ix, k, w).visited),
			fmt.Sprintf("%.0f", measureUTKIndex(ix, k, w).visited),
			fmt.Sprintf("%.0f", measureORUIndex(ix, k, 2*k, w).visited),
		})
	}
	printTable(header, rows)
}

// expTable6 — how many queries amortize index construction versus running
// the specialized baselines directly.
func expTable6(sc scale) {
	header := []string{"dataset", "build", "kSPR", "UTK", "ORU"}
	var rows [][]string
	reals := []struct {
		name string
		data [][]float64
		tau  int
	}{
		{"HOTEL", datagen.HotelSized(sc.hotelN, 1), sc.defaultTau},
		{"HOUSE", datagen.HouseSized(sc.houseN, 1), 3},
		{"NBA", datagen.NBASized(sc.nbaN, 1), 2},
	}
	amortize := func(build time.Duration, ixT, blT measured) string {
		if blT.t <= ixT.t {
			return "never"
		}
		n := int(build/(blT.t-ixT.t)) + 1
		return fmt.Sprintf("%d", n)
	}
	for _, r := range reals {
		k := min(sc.defaultK, r.tau)
		ix, build := buildTimed(r.data, r.tau, tlx.PBAPlus)
		brs := baseline.NewBRS(r.data)
		w := newWorkload(r.data, k, sc.queries, 11)
		m := 2 * k
		rows = append(rows, []string{
			fmt.Sprintf("%s(k=%d)", r.name, k),
			fmtDur(build),
			amortize(build, measureKSPRIndex(ix, k, w), measureKSPRBaseline(w, k)),
			amortize(build, measureUTKIndex(ix, k, w), measureUTKBaseline(brs, k, w)),
			amortize(build, measureORUIndex(ix, k, m, w), measureORUBaseline(brs, k, m, w)),
		})
	}
	printTable(header, rows)
}

// expTopK — the §7.3 note: the DD-type top-k query on the index versus the
// branch-and-bound R-tree search.
func expTopK(sc scale) {
	data := datagen.Generate(datagen.IND, sc.defaultN, sc.defaultD, 1)
	ix, _ := buildTimed(data, sc.queryTau, tlx.PBAPlus)
	brs := baseline.NewBRS(data)
	rng := rand.New(rand.NewSource(3))
	header := []string{"k", "LevelIndex", "BRS"}
	var rows [][]string
	for _, k := range []int{sc.queryTau / 2, sc.queryTau} {
		var ixT, blT time.Duration
		const reps = 200
		for i := 0; i < reps; i++ {
			x := randReduced(rng, sc.defaultD-1)
			full := append(append([]float64(nil), x...), 1-sum(x))
			start := time.Now()
			if _, err := ix.TopK(full, k); err != nil {
				panic(err)
			}
			ixT += time.Since(start)
			start = time.Now()
			brs.TopK(x, k)
			blT += time.Since(start)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", k),
			fmtDur(ixT / reps),
			fmtDur(blT / reps),
		})
	}
	printTable(header, rows)
}

func sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
