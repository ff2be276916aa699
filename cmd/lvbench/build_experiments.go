package main

import (
	"fmt"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

// buildTimed builds an index and returns it with the elapsed time.
func buildTimed(data [][]float64, tau int, algo tlx.Algorithm) (*tlx.Index, time.Duration) {
	return buildTimedOpts(data, tau, tlx.WithAlgorithm(algo), tlx.WithSeed(7))
}

// buildTimedOpts is buildTimed with explicit build options. The global
// -workers flag applies first, so explicit WithWorkers options win.
func buildTimedOpts(data [][]float64, tau int, opts ...tlx.Option) (*tlx.Index, time.Duration) {
	all := append([]tlx.Option{tlx.WithWorkers(workersFlag)}, opts...)
	start := time.Now()
	ix, err := tlx.Build(data, tau, all...)
	if err != nil {
		panic(fmt.Sprintf("lvbench: build failed: %v", err))
	}
	return ix, time.Since(start)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fm", d.Minutes())
	}
}

// buildAlgos are the Figure 9 series, in the paper's order.
var buildAlgos = []tlx.Algorithm{tlx.BSL, tlx.IBA, tlx.PBA, tlx.PBAPlus}

// skipSlow mirrors the paper's cutoff for BSL/IBA on larger configurations
// (their runs past 10^5 s are shown as broken bars).
func skipSlow(a tlx.Algorithm, sc scale, n, d, tau int) bool {
	switch a {
	case tlx.BSL:
		return n > sc.bslMaxN || d > sc.bslMaxD || tau > sc.bslMaxTau
	case tlx.IBA, tlx.IBAR:
		return n > sc.ibaMaxN || d > sc.ibaMaxD || tau > sc.ibaMaxTau
	}
	return false
}

// expFig9 — index building time versus cardinality, dimensionality, and τ.
func expFig9(sc scale) {
	header := append([]string{"sweep"}, "BSL", "IBA", "PBA", "PBA+")
	sweep := func(title string, configs []struct {
		label   string
		n, d, t int
	}) {
		fmt.Printf("-- Figure 9 (%s) --\n", title)
		rows := make([][]string, 0, len(configs))
		for _, cfg := range configs {
			data := datagen.Generate(datagen.IND, cfg.n, cfg.d, 1)
			row := []string{cfg.label}
			for _, a := range buildAlgos {
				if skipSlow(a, sc, cfg.n, cfg.d, cfg.t) {
					row = append(row, "-")
					continue
				}
				_, dur := buildTimed(data, cfg.t, a)
				row = append(row, fmtDur(dur))
			}
			rows = append(rows, row)
		}
		printTable(header, rows)
	}

	var byN []struct {
		label   string
		n, d, t int
	}
	for _, n := range sc.ns {
		byN = append(byN, struct {
			label   string
			n, d, t int
		}{fmt.Sprintf("n=%d", n), n, sc.defaultD, sc.defaultTau})
	}
	sweep("a: vary cardinality n", byN)

	var byD []struct {
		label   string
		n, d, t int
	}
	for _, d := range sc.ds {
		byD = append(byD, struct {
			label   string
			n, d, t int
		}{fmt.Sprintf("d=%d", d), sc.dSweepN, d, sc.dSweepTau})
	}
	sweep("b: vary dimensionality d", byD)

	var byT []struct {
		label   string
		n, d, t int
	}
	for _, t := range sc.taus {
		byT = append(byT, struct {
			label   string
			n, d, t int
		}{fmt.Sprintf("tau=%d", t), sc.defaultN, sc.defaultD, t})
	}
	sweep("c: vary levels tau", byT)
}

// expFig10 — number of cells and serialized index size for PBA⁺.
func expFig10(sc scale) {
	header := []string{"sweep", "cells", "index size", "build"}
	run := func(title string, labels []string, cfgs [][3]int) {
		fmt.Printf("-- Figure 10 (%s) --\n", title)
		rows := make([][]string, 0, len(cfgs))
		for i, cfg := range cfgs {
			data := datagen.Generate(datagen.IND, cfg[0], cfg[1], 1)
			ix, dur := buildTimed(data, cfg[2], tlx.PBAPlus)
			rows = append(rows, []string{
				labels[i],
				fmt.Sprintf("%d", ix.NumCells()),
				fmt.Sprintf("%.1fKB", float64(ix.SizeBytes())/1024),
				fmtDur(dur),
			})
		}
		printTable(header, rows)
	}
	var labels []string
	var cfgs [][3]int
	for _, n := range sc.ns {
		labels = append(labels, fmt.Sprintf("n=%d", n))
		cfgs = append(cfgs, [3]int{n, sc.defaultD, sc.defaultTau})
	}
	run("a: vary n", labels, cfgs)
	labels, cfgs = nil, nil
	for _, d := range sc.ds {
		labels = append(labels, fmt.Sprintf("d=%d", d))
		cfgs = append(cfgs, [3]int{sc.dSweepN, d, sc.dSweepTau})
	}
	run("b: vary d", labels, cfgs)
	labels, cfgs = nil, nil
	for _, t := range sc.taus {
		labels = append(labels, fmt.Sprintf("tau=%d", t))
		cfgs = append(cfgs, [3]int{sc.defaultN, sc.defaultD, t})
	}
	run("c: vary tau", labels, cfgs)
}

// expFig11 — building time across data distributions and the simulated real
// datasets, with IBA-R included (the insertion-ordering ablation).
func expFig11(sc scale) {
	algos := []tlx.Algorithm{tlx.IBAR, tlx.IBA, tlx.PBA, tlx.PBAPlus}
	header := []string{"dataset", "IBA-R", "IBA", "PBA", "PBA+"}

	fmt.Println("-- Figure 11 (a: synthetic distributions) --")
	// The distribution sweep runs at a cardinality every algorithm can
	// finish, so the IBA versus IBA-R ordering comparison is visible.
	var rows [][]string
	for _, dist := range []datagen.Distribution{datagen.COR, datagen.IND, datagen.ANTI} {
		n := sc.ibaMaxN
		data := datagen.Generate(dist, n, sc.defaultD, 1)
		row := []string{fmt.Sprintf("%v(n=%d)", dist, n)}
		for _, a := range algos {
			if skipSlow(a, sc, n, sc.defaultD, sc.defaultTau) || (dist == datagen.ANTI && a != tlx.PBAPlus && a != tlx.PBA) {
				row = append(row, "-")
				continue
			}
			_, dur := buildTimed(data, sc.defaultTau, a)
			row = append(row, fmtDur(dur))
		}
		rows = append(rows, row)
	}
	printTable(header, rows)

	fmt.Println("-- Figure 11 (b: simulated real datasets) --")
	rows = nil
	reals := []struct {
		name string
		data [][]float64
		tau  int
	}{
		{"HOTEL(4d)", datagen.HotelSized(sc.hotelN, 1), sc.defaultTau},
		{"HOUSE(6d)", datagen.HouseSized(sc.houseN, 1), 3},
		{"NBA(8d)", datagen.NBASized(sc.nbaN, 1), 2},
	}
	for _, r := range reals {
		row := []string{fmt.Sprintf("%s n=%d tau=%d", r.name, len(r.data), r.tau)}
		for _, a := range algos {
			d := len(r.data[0])
			if skipSlow(a, sc, len(r.data), d, r.tau) {
				row = append(row, "-")
				continue
			}
			_, dur := buildTimed(r.data, r.tau, a)
			row = append(row, fmtDur(dur))
		}
		rows = append(rows, row)
	}
	printTable(header, rows)
}

// expTable4 — effectiveness analysis of PBA⁺: post-filter vs actual
// candidates per level, and hyperplanes per cell for IBA vs PBA⁺.
func expTable4(sc scale) {
	n := sc.ibaMaxN // IBA must finish for its hyperplane column
	data := datagen.Generate(datagen.IND, n, sc.defaultD, 1)
	tau := sc.ibaMaxTau
	pba, _ := buildTimed(data, tau, tlx.PBAPlus)
	iba, _ := buildTimed(data, tau, tlx.IBA)
	ps := pba.Stats()
	is := iba.Stats()
	fmt.Printf("-- Table 4 (IND, n=%d, d=%d, tau=%d) --\n", n, sc.defaultD, tau)
	header := []string{"level", "post-filter cand.", "actual cand.", "hyperplanes IBA", "hyperplanes PBA+"}
	var rows [][]string
	for _, l := range []int{tau / 3, 2 * tau / 3, tau} {
		if l < 1 {
			l = 1
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", l),
			fmt.Sprintf("%.2f", ps.PostFilterCandidates[l-1]),
			fmt.Sprintf("%.2f", ps.ActualCandidates[l-1]),
			fmt.Sprintf("%.1f", is.HyperplanesPerCell[l-1]),
			fmt.Sprintf("%.1f", ps.HyperplanesPerCell[l-1]),
		})
	}
	printTable(header, rows)
}
