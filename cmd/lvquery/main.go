// Command lvquery runs preference-space queries against a dataset using a
// τ-LevelIndex, printing the answer and traversal statistics.
//
// Usage:
//
//	lvquery -in hotels.txt -tau 10 -query kspr -k 2 -focal 0
//	lvquery -in hotels.txt -tau 10 -query utk  -k 3 -lo 0.35 -hi 0.45
//	lvquery -in hotels.txt -tau 10 -query oru  -k 2 -w 0.3,0.7 -m 3
//	lvquery -in hotels.txt -tau 10 -query topk -k 5 -w 0.18,0.82
//	lvquery -in hotels.txt -tau 10 -query maxrank -focal 3
//
// A -k above -tau is refused: the query exits with the index's
// ErrBeyondTau message instead of deepening the index.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/dataio"
)

func parseVec(s string) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("missing vector")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func main() {
	in := flag.String("in", "", "input dataset path (required)")
	tau := flag.Int("tau", 10, "index levels")
	query := flag.String("query", "topk", "query: kspr, utk, oru, topk, maxrank, whynot")
	k := flag.Int("k", 2, "ranking depth k")
	m := flag.Int("m", 3, "result size for oru")
	focal := flag.Int("focal", 0, "focal option index (kspr, maxrank, whynot)")
	wStr := flag.String("w", "", "full weight vector, comma separated (oru, topk, whynot)")
	loStr := flag.String("lo", "", "query box lower corner, reduced coords (utk)")
	hiStr := flag.String("hi", "", "query box upper corner, reduced coords (utk)")
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("-in is required"))
	}
	data, err := dataio.ReadFile(*in)
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	ix, err := tlx.Build(data, *tau)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("index built in %v (%d cells)\n", time.Since(start), ix.NumCells())

	qstart := time.Now()
	switch *query {
	case "kspr":
		res, err := ix.KSPR(*k, *focal)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("kSPR(%d, %d): %d regions, %v\n", *k, *focal, len(res.Regions), time.Since(qstart))
		for i, r := range res.Regions {
			fmt.Printf("  region %d: %d halfspaces\n", i, len(r.Halfspaces))
		}
	case "utk":
		lo, err := parseVec(*loStr)
		if err != nil {
			fatal(fmt.Errorf("-lo: %w", err))
		}
		hi, err := parseVec(*hiStr)
		if err != nil {
			fatal(fmt.Errorf("-hi: %w", err))
		}
		res, err := ix.UTK(*k, lo, hi)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("UTK(%d, [%v, %v]): options %v, %d partitions, %d cells visited, %v\n",
			*k, lo, hi, res.Options, len(res.Partitions), res.Stats.VisitedCells, time.Since(qstart))
	case "oru":
		w, err := parseVec(*wStr)
		if err != nil {
			fatal(fmt.Errorf("-w: %w", err))
		}
		res, err := ix.ORU(*k, w, *m)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ORU(%d, %v, %d): options %v, rho %.4f, %d cells visited, %v\n",
			*k, w, *m, res.Options, res.Rho, res.Stats.VisitedCells, time.Since(qstart))
	case "topk":
		w, err := parseVec(*wStr)
		if err != nil {
			fatal(fmt.Errorf("-w: %w", err))
		}
		res, err := ix.TopK(w, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("top-%d at %v: %v (%v)\n", *k, w, res, time.Since(qstart))
	case "maxrank":
		rank, err := ix.MaxRank(*focal)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("MaxRank(%d) = %d (%v)\n", *focal, rank, time.Since(qstart))
	case "whynot":
		w, err := parseVec(*wStr)
		if err != nil {
			fatal(fmt.Errorf("-w: %w", err))
		}
		res, err := ix.WhyNot(*focal, w, *k)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("why-not(%d, %v, top-%d): rank %d, inTopK %v, min shift %.4f (%v)\n",
			*focal, w, *k, res.Rank, res.InTopK, res.MinShift, time.Since(qstart))
	default:
		fatal(fmt.Errorf("unknown query %q", *query))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lvquery:", err)
	os.Exit(1)
}
