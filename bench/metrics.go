package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json repeats both tables
// below; a test keeps the file and the code equal.
type metricDef struct {
	name, unit string
	higher     bool    // a higher value is the better one
	bound      float64 // end to end only: the share by which it may worsen
}

// endToEnd are the gated metrics, measured in untraced windows. Every
// workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"lat_p50_us", "us", false, 0.25},
	{"lat_p99_us", "us", false, 0.25},
}

// perLayer are the traced pass's metrics, by layer. A workload that never
// calls into a layer's write side reports those metrics as 0.
var perLayer = []metricDef{
	{name: "nethttp.roundtrip_us", unit: "us"},
	{name: "nethttp.self_us", unit: "us"},
	{name: "serve.handler_us", unit: "us"},
	{name: "serve.self_us", unit: "us"},
	{name: "serve.handler_allocs", unit: "count"},
	{name: "serve.insert_batch_ms", unit: "ms"},
	{name: "cache.hit_ratio", unit: "ratio", higher: true},
	{name: "cache.evictions", unit: "count"},
	{name: "cache.probe_us", unit: "us"},
	{name: "cache.get_hit_ns", unit: "ns"},
	{name: "cache.get_miss_ns", unit: "ns"},
	{name: "cache.put_ns", unit: "ns"},
	{name: "cache.getmulti_item_ns", unit: "ns"},
	{name: "api.query_us", unit: "us"},
	{name: "api.self_us", unit: "us"},
	{name: "api.insert_batch_ms_rec", unit: "ms"},
	{name: "api.insert_thaw_ms", unit: "ms"},
	{name: "api.insert_finalize_ms", unit: "ms"},
	{name: "api.insert_accept_ratio", unit: "ratio", higher: true},
	{name: "api.write_ms", unit: "ms"},
	{name: "api.read_heap_ms", unit: "ms"},
	{name: "api.open_mmap_ms", unit: "ms"},
	{name: "index.query_us", unit: "us"},
	{name: "index.visited_cells_per_op", unit: "count"},
	{name: "index.lp_calls_per_op", unit: "count"},
	{name: "index.build_ms", unit: "ms"},
	{name: "index.build_lp_calls", unit: "count"},
	{name: "index.cells", unit: "count"},
	{name: "index.size_bytes", unit: "bytes"},
	{name: "geom.region_feasible_ns", unit: "ns"},
	{name: "lp.solve_ns", unit: "ns"},
	{name: "store.insert_batch_ms_rec", unit: "ms"},
	{name: "store.wal_ms_rec", unit: "ms"},
	{name: "store.fsyncs_per_rec", unit: "count"},
	{name: "store.wal_bytes_per_rec", unit: "bytes"},
	{name: "store.snapshot_ms", unit: "ms"},
	{name: "store.snapshot_bytes", unit: "bytes"},
	{name: "store.reopen_ms", unit: "ms"},
	{name: "store.disk_bytes_per_user_byte", unit: "ratio"},
	{name: "replicate.bootstrap_ms", unit: "ms"},
	{name: "replicate.shipped_bytes", unit: "bytes"},
	{name: "obs.sampled_overhead_ns", unit: "ns"},
	{name: "bench.trace_overhead_pct", unit: "%"},
	{name: "bench.spans_nested_pct", unit: "%", higher: true},
}

// exactCounts are the traced pass's counts that depend on the request list
// alone (one goroutine, no timing), so two runs of one commit must agree on
// them to the last digit. cache.hit_ratio is not among them: once the cache
// is full it evicts whichever entry Go's map iteration yields.
var exactCounts = []string{"index.visited_cells_per_op", "index.lp_calls_per_op", "store.fsyncs_per_rec"}

var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is the number of timings behind the figure and Percentile the
	// percentile reported once the minBeyond rule has been applied; both are
	// omitted where they do not apply.
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// result is one run of one workload, timed or traced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are figures that qualify the metrics without being gated, and
	// the first errors behind Failed.
	Notes []string `json:"notes,omitempty"`
}

func newResult(w *workload, seed int64, traced bool) *result {
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]metric{}}
	if traced {
		for _, d := range perLayer {
			res.set(d.name, 0, 0)
		}
	}
	return res
}

// set records a metric the tables above define, over samples timings.
func (r *result) set(name string, v float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is in no table", name))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records failed operations, keeping the first few reasons.
func (r *result) fail(errs ...error) {
	r.Failed += len(errs)
	for _, err := range errs {
		if len(r.Notes) < 8 {
			r.note("FAILED: %v", err)
		}
	}
}
