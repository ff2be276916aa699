package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.99}, {1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {3, 0.5},
	} {
		if got := supported(c.n, 0.99); got != c.want {
			t.Errorf("supported(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := supported(1_000_000, 0.5); got != 0.5 {
		t.Errorf("the median was raised to %v", got)
	}
	var l latencies
	for i := 1; i <= 200; i++ {
		l.add(int64(i))
	}
	if v, used := l.at(0.99, 1); used != 0.9 || v < 179 || v > 181 {
		t.Errorf("200 samples at p99: got %v at p%v, want about 180 at p90", v, 100*used)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// simClock is simulated time: Sleep advances it, and so does the system
// under test when it takes time to answer.
type simClock struct{ now time.Time }

func (c *simClock) Now() time.Time        { return c.now }
func (c *simClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesAStallFromTheDueTime(t *testing.T) {
	clk := &simClock{now: time.Unix(1000, 0)}
	start := clk.now
	const period = 5 * time.Millisecond
	// Request 2 takes 22 ms (a write holds the lock); all others 1 ms.
	got := openLoop(clk, start, period, 9, func(i int) {
		if i == 2 {
			clk.Sleep(22 * time.Millisecond)
		} else {
			clk.Sleep(time.Millisecond)
		}
	}, nil)
	// Request 2 is due at 10 ms and answered at 32. Requests 3..7 were due at
	// 15..35, each before the reply preceding it (32, 33, .. 36): each is
	// timed from its due time. Request 8, due at 40, is back on schedule.
	wantMS := []int{1, 1, 22, 18, 14, 10, 6, 2, 1}
	for i, p := range got {
		if ms := int(p.latency() / time.Millisecond); ms != wantMS[i] {
			t.Errorf("request %d: latency %d ms, want %d", i, ms, wantMS[i])
		}
		if wantStalled := i >= 3 && i <= 7; p.stalled != wantStalled {
			t.Errorf("request %d: stalled = %v", i, p.stalled)
		}
		if p.genLate() != 0 {
			t.Errorf("request %d: the generator is blamed for %v", i, p.genLate())
		}
	}
}

// lateClock oversleeps by a fixed amount, as a busy generator would.
type lateClock struct{ simClock }

func (c *lateClock) Sleep(d time.Duration) { c.simClock.Sleep(d + 300*time.Microsecond) }

func TestOpenLoopReportsItsOwnLateness(t *testing.T) {
	clk := &lateClock{simClock{now: time.Unix(1000, 0)}}
	got := openLoop(clk, clk.Now(), 5*time.Millisecond, 4, func(int) { clk.simClock.Sleep(time.Millisecond) }, nil)
	for i, p := range got[1:] {
		if p.stalled || p.genLate() != 300*time.Microsecond || p.latency() != time.Millisecond {
			t.Errorf("request %d: stalled=%v late=%v latency=%v; want the send time as origin and 300us of lateness",
				i+1, p.stalled, p.genLate(), p.latency())
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{}
	root := tr.add(-1, 0, "nethttp.roundtrip", 30*time.Microsecond)
	h := tr.add(root, 0, "serve.handler", 9*time.Microsecond)
	tr.add(h, 0, "api.query", 2*time.Microsecond)
	tr.add(h, 0, "cache.probe", 1*time.Microsecond)
	// A second request whose child replay outlasted its parent's.
	root2 := tr.add(-1, 1, "nethttp.roundtrip", 20*time.Microsecond)
	tr.add(root2, 1, "serve.handler", 25*time.Microsecond)

	self := selfTimes(tr.spans)
	for i, want := range []int64{21000, 6000, 2000, 1000, -5000, 25000} {
		if self[i] != want {
			t.Errorf("span %d (%s): self time %d ns, want %d", i, tr.spans[i].Name, self[i], want)
		}
	}
	if s := tr.spans[3]; s.StartNS != tr.spans[2].EndNS || s.EndNS > tr.spans[1].EndNS {
		t.Errorf("siblings are not laid end to end inside their parent: %+v", tr.spans[:4])
	}
	if tr.spans[4].StartNS != tr.spans[0].EndNS {
		t.Errorf("the second request does not start where the first ended")
	}
	if got := nestedShare(tr.spans); got != 0.5 {
		t.Errorf("nestedShare = %v, want 0.5", got)
	}
}

func TestFailedOpsCountsBatchItems(t *testing.T) {
	ok := []byte(`{"results":[{"result":{"options":[1]},"cached":false,"lsn":0}]}`)
	twoBad := []byte(`{"results":[{"cached":false,"lsn":0,"error":"x","status":400},{"result":{}},{"error":"y","status":400}]}`)
	for _, c := range []struct {
		name   string
		ops    int
		status int
		body   []byte
		err    error
		want   int
	}{
		{"clean", 64, 200, ok, nil, 0},
		{"two items failed", 64, 200, twoBad, nil, 2},
		{"whole request refused", 64, 400, []byte(`{"error":"empty batch"}`), nil, 64},
		{"transport error", 64, 0, nil, http.ErrServerClosed, 64},
		{"single query failed", 1, 200, []byte(`{"error":"bad"}`), nil, 1},
	} {
		if got := failedOps(c.ops, c.status, c.body, c.err); got != c.want {
			t.Errorf("%s: %d failed operations, want %d", c.name, got, c.want)
		}
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	focals := []int{3, 5, 8, 13}
	for _, w := range workloads {
		render := func(seed int64) []byte {
			var all bytes.Buffer
			s := newStream(w, seed, 1, focals)
			for i := 0; i < 50; i++ {
				body, _ := s.next()
				all.Write(body)
			}
			return all.Bytes()
		}
		if !bytes.Equal(render(7), render(7)) {
			t.Errorf("%s: one seed rendered two different request streams", w.name)
		}
		if bytes.Equal(render(7), render(8)) {
			t.Errorf("%s: two seeds rendered the same request stream", w.name)
		}
	}
}

func TestInsertScheduleIsAcceptedAsPlanned(t *testing.T) {
	w := workloadByName("ingest_mixed")
	// acceptedBy applies one seed's schedule to a fresh store and returns
	// the schedule's first batch and the options the index accepted.
	acceptedBy := func(seed int64) ([]byte, [][]float64) {
		st, err := setUp(w, 1000)
		if err != nil {
			t.Fatal(err)
		}
		defer st.close()
		batches := insertBatches(w, st.data, st.rankHolders(w.tau), seed)
		var accepted [][]float64
		for _, batch := range batches {
			results, _, err := st.st.InsertBatchLSN(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if r.ID >= len(st.data) {
					accepted = append(accepted, batch[i])
				}
			}
		}
		return appendInsertBatch(nil, batches[0]), accepted
	}
	first1, accepted1 := acceptedBy(1)
	first2, accepted2 := acceptedBy(2)
	if bytes.Equal(first1, first2) {
		t.Error("two seeds drew the same first batch")
	}
	if want := w.batches * w.accepted; len(accepted1) != want {
		t.Errorf("%d options accepted, want %d", len(accepted1), want)
	}
	// Whatever the seed, the same options are accepted, in the same order.
	if !bytes.Equal(appendInsertBatch(nil, accepted1), appendInsertBatch(nil, accepted2)) {
		t.Error("two seeds had different options accepted")
	}
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, the benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file []jsonMetric, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(file), len(code))
		}
		for i, d := range code {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json says %+v, the benchmark {%s %s %s}", kind, i, f, d.name, d.unit, better)
			}
			if bounded != (f.Bound != nil) || (bounded && *f.Bound != d.bound) {
				t.Errorf("%s metric %s: bound differs from the benchmark's %v", kind, d.name, d.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

// TestQuickRunOfEveryWorkload drives every workload through the timed
// window, the oracle and durability checks and the traced pass at the
// -quick size.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		cfg := quickConfig(1, 2)
		timed, err := runTimed(w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !timed.Correct || timed.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, timed.Failed, timed.Attempted, timed.Notes)
		}
		for _, d := range endToEnd {
			if m, ok := timed.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.name, m)
			}
		}
		if len(timed.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, want %d", w.name, len(timed.Metrics), len(endToEnd))
		}

		traced, err := runTraced(w, cfg, out)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: %v", w.name, traced.Notes)
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, want %d", w.name, len(traced.Metrics), len(perLayer))
		}
		for _, name := range []string{"nethttp.roundtrip_us", "serve.handler_us", "api.query_us", "index.cells", "store.reopen_ms", "replicate.bootstrap_ms"} {
			if traced.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, traced.Metrics[name].Value)
			}
		}
		if wrote := traced.Metrics["api.insert_batch_ms_rec"].Value > 0; wrote != (w.rounds > 0) {
			t.Errorf("%s: insert metrics present = %v", w.name, wrote)
		}
		raw, err := os.ReadFile(out + "/trace-" + w.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(raw, &file); err != nil || len(file.Spans) < 4*cfg.traced {
			t.Errorf("%s: trace file holds %d spans (%v)", w.name, len(file.Spans), err)
		}
	}
}
