// Command bench is the repository's benchmark: it serves an index from the
// stack `lvserve -data-dir` assembles, inside its own process, drives it over
// loopback sockets with four named workloads, checks the answers against the
// oracles in baseline/, and reports end-to-end metrics from untraced windows
// and per-layer metrics from a separate traced pass. README.md is the
// dictionary of workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// stamp identifies the machine and build a result file came from.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"goVersion"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	WarmS      float64 `json:"warmSeconds"`
	MeasureS   float64 `json:"measureSeconds"`
	Options    int     `json:"options"`
	Time       string  `json:"time"`
}

func newStamp(cfg config) stamp {
	s := stamp{Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Seed: cfg.seed, Clients: cfg.clients,
		WarmS: cfg.warm.Seconds(), MeasureS: cfg.measure.Seconds(), Options: cfg.n,
		Time: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return s
}

func main() {
	var (
		names     = flag.String("workload", "", "comma-separated workloads to run (default: all four)")
		seed      = flag.Int64("seed", 1, "seed of the request streams; run r of -reps uses seed+r")
		seconds   = flag.Int("seconds", 10, "length of a measured window")
		trace     = flag.Int("trace", 2, "0: timed windows only, 1: traced pass only, 2: both")
		reps      = flag.Int("reps", 1, "runs per workload; medians and quartile spreads are reported")
		out       = flag.String("out", "out", "directory for results.json and trace-<workload>.json")
		quick     = flag.Bool("quick", false, "n=1000 and 1 s windows: exercises everything, measures nothing")
		selfcheck = flag.Bool("selfcheck", false, "run two sets of -reps runs (10 unless set) and judge spreads and medians against the bounds")
	)
	flag.Parse()

	// Go up to 1.24 sizes GOMAXPROCS from the host's CPUs and an inherited
	// environment variable can say anything; pin it to what this process may
	// run on, and never drive more clients than that.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	clients := min(nproc, 4)

	var sel []*workload
	if *names == "" {
		sel = workloads
	}
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := workloadByName(name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		sel = append(sel, w)
	}
	if *selfcheck && *reps == 1 {
		*reps = 10
	}
	mk := func(seed int64) config {
		if *quick {
			return quickConfig(seed, clients)
		}
		return fullConfig(seed, *seconds, clients)
	}

	sets := 1
	if *selfcheck {
		sets = 2
	}
	report := struct {
		Stamp stamp       `json:"stamp"`
		Sets  [][]*result `json:"sets"`
	}{Stamp: newStamp(mk(*seed))}
	ok := true
	for set := 0; set < sets; set++ {
		var results []*result
		for _, w := range sel {
			for r := 0; r < *reps; r++ {
				cfg := mk(*seed + int64(r))
				if *trace != 1 {
					res, err := runTimed(w, cfg)
					if err != nil {
						fatal(fmt.Errorf("%s: %w", w.name, err))
					}
					results = append(results, res)
				}
				if *trace != 0 {
					res, err := runTraced(w, cfg, *out)
					if err != nil {
						fatal(fmt.Errorf("%s traced: %w", w.name, err))
					}
					results = append(results, res)
				}
			}
		}
		for _, res := range results {
			ok = ok && res.Correct
		}
		printResults(results)
		report.Sets = append(report.Sets, results)
	}
	if *selfcheck {
		ok = printSelfcheck(report.Sets[0], report.Sets[1]) && ok
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), report); err != nil {
		fatal(err)
	}
	// One workload, one pass, one run: the last line is the machine-readable
	// result a driver reads.
	if last := report.Sets[0]; len(last) == 1 && sets == 1 {
		line, err := json.Marshal(struct {
			Correct   bool                 `json:"correct"`
			Attempted int                  `json:"attempted"`
			Failed    int                  `json:"failed"`
			Metrics   map[string]driverVal `json:"metrics"`
		}{last[0].Correct, last[0].Attempted, last[0].Failed, driverMetrics(last[0])})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

type driverVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMetrics(r *result) map[string]driverVal {
	m := make(map[string]driverVal, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = driverVal{v.Value, v.Unit}
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// byRun groups results of one kind (timed or traced) by workload, in first-
// seen order.
func byRun(results []*result, traced bool) (order []string, groups map[string][]*result) {
	groups = map[string][]*result{}
	for _, r := range results {
		if r.Traced != traced {
			continue
		}
		if _, seen := groups[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		groups[r.Workload] = append(groups[r.Workload], r)
	}
	return order, groups
}

func values(runs []*result, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

func metricNames(runs []*result) []string {
	var names []string
	for name := range runs[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printResults prints every metric of every workload by name and unit: the
// median over the runs, the quartile spread when there are several, and the
// sample count and percentile behind a latency.
func printResults(results []*result) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, traced := range []bool{false, true} {
		order, groups := byRun(results, traced)
		for _, name := range order {
			runs := groups[name]
			kind := "end to end"
			if traced {
				kind = "per layer, traced pass"
			}
			attempted, failed := 0, 0
			for _, r := range runs {
				attempted += r.Attempted
				failed += r.Failed
			}
			fmt.Fprintf(tw, "\n%s\t%s\t%d run(s)\t%d operations\t%d failed\t\n", name, kind, len(runs), attempted, failed)
			for _, m := range metricNames(runs) {
				v := values(runs, m)
				first := runs[0].Metrics[m]
				line := fmt.Sprintf("  %s\t%.6g\t%s", m, median(v), first.Unit)
				if len(v) > 1 {
					line += fmt.Sprintf("\tspread %.1f%%", 100*spread(v))
				} else {
					line += "\t"
				}
				if first.Samples > 0 {
					line += fmt.Sprintf("\tn=%d", first.Samples)
					if first.Percentile > 0 {
						line += fmt.Sprintf(" p%g", first.Percentile)
					}
				}
				fmt.Fprintln(tw, line+"\t")
			}
			for _, r := range runs {
				for _, n := range r.Notes {
					fmt.Fprintf(tw, "  seed %d: %s\n", r.Seed, n)
				}
			}
		}
	}
	tw.Flush()
}

// printSelfcheck compares two sets of runs of the same code the way a
// regression gate would: every end-to-end spread except setup_s within the
// metric's bound, and the second median no worse than the first by more than
// the bound.
func printSelfcheck(a, b []*result) bool {
	order, ga := byRun(a, false)
	_, gb := byRun(b, false)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nselfcheck\tmetric\tmedian 1\tspread 1\tmedian 2\tspread 2\tworse by\tbound\t")
	pass := true
	for _, name := range order {
		for _, m := range endToEnd {
			va, vb := values(ga[name], m.name), values(gb[name], m.name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.higher {
				worse = -worse
			}
			ok := worse <= m.bound
			if m.name != "setup_s" {
				ok = ok && spread(va) <= m.bound && spread(vb) <= m.bound
			}
			verdict := "PASS"
			if !ok {
				verdict, pass = "FAIL", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.1f%%\t%.6g\t%.1f%%\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.name, ma, 100*spread(va), mb, 100*spread(vb), 100*worse, 100*m.bound, verdict)
		}
	}
	tw.Flush()
	// Counts of the single-goroutine traced pass must repeat exactly.
	order, ta := byRun(a, true)
	_, tb := byRun(b, true)
	for _, name := range order {
		for _, m := range exactCounts {
			if x, y := values(ta[name], m), values(tb[name], m); fmt.Sprint(x) != fmt.Sprint(y) {
				fmt.Printf("%s %s does not repeat: %v then %v  FAIL\n", name, m, x, y)
				pass = false
			}
		}
	}
	return pass
}
