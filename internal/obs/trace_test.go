package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned the zero id")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, ok := ParseTraceID(s)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v %v, want %v", s, back, ok, id)
	}
	if id2 := NewTraceID(); id2 == id {
		t.Fatal("consecutive trace ids collide")
	}
}

func TestParseTraceIDRejects(t *testing.T) {
	for _, s := range []string{
		"",
		"0af7651916cd43dd8448eb211c80319",    // 31 digits
		"0af7651916cd43dd8448eb211c80319cc",  // 33 digits
		"0af7651916cd43dd8448eb211c80319g",   // non-hex
		"00000000000000000000000000000000",   // zero id is invalid
		"0AF7651916CD43DD8448EB211C80319Cxx", // wrong length, mixed
	} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted", s)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	span := NewSpanID()
	hdr := Traceparent(id, span)
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") || len(hdr) != 55 {
		t.Fatalf("Traceparent = %q", hdr)
	}
	gotT, gotS, sampled, ok := ParseTraceparent(hdr)
	if !ok || !sampled || gotT != id || gotS != span {
		t.Fatalf("ParseTraceparent(%q) = %v %v %v %v", hdr, gotT, gotS, sampled, ok)
	}
	// Trailing fields beyond the version-00 layout are tolerated.
	if _, _, _, ok := ParseTraceparent(hdr + "-extra"); !ok {
		t.Fatal("traceparent with trailing field rejected")
	}
	// The sampled bit reflects the trace-flags field: flags 00 parses fine
	// but reports the caller's explicit opt-out.
	if _, _, sampled, ok := ParseTraceparent(hdr[:52] + "-00"); !ok || sampled {
		t.Fatalf("flags 00: sampled=%v ok=%v, want false true", sampled, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := Traceparent(TraceID{Hi: 1, Lo: 2}, 3)
	for name, s := range map[string]string{
		"empty":     "",
		"truncated": valid[:54],
		"no dashes": strings.ReplaceAll(valid, "-", "x"),
		"zero trace": "00-00000000000000000000000000000000-" +
			"00f067aa0ba902b7-01",
		"zero span": "00-0af7651916cd43dd8448eb211c80319c-" +
			"0000000000000000-01",
		"bad hex trace": "00-0af7651916cd43dd8448eb211c80319z-" +
			"00f067aa0ba902b7-01",
		"bad hex span": "00-0af7651916cd43dd8448eb211c80319c-" +
			"00f067aa0ba902bz-01",
		"bad hex version": "zz-0af7651916cd43dd8448eb211c80319c-" +
			"00f067aa0ba902b7-01",
		"forbidden version ff": "ff-0af7651916cd43dd8448eb211c80319c-" +
			"00f067aa0ba902b7-01",
		"bad hex flags": "00-0af7651916cd43dd8448eb211c80319c-" +
			"00f067aa0ba902b7-0g",
		"trailing junk without separator": valid + "x",
	} {
		if _, _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, s)
		}
	}
}

func TestSpanContextPropagation(t *testing.T) {
	rec := NewRecorder(16, 0, nil)
	sc := SpanContext{Trace: NewTraceID(), Span: 7, Tracer: rec}
	ctx := ContextWithSpan(context.Background(), sc)
	got, ok := SpanContextFrom(ctx)
	if !ok || got != sc {
		t.Fatalf("SpanContextFrom = %+v %v, want %+v", got, ok, sc)
	}
	if _, ok := SpanContextFrom(context.Background()); ok {
		t.Fatal("SpanContextFrom on a bare context reported a trace")
	}
	child := sc.ChildOf(99)
	if child.Trace != sc.Trace || child.Span != 99 || child.Tracer != Tracer(rec) {
		t.Fatalf("ChildOf = %+v", child)
	}
	sp := StartSpanIn(sc, "op")
	if sp.Trace != sc.Trace || sp.Parent != sc.Span || sp.ID == 0 {
		t.Fatalf("StartSpanIn positioned span wrong: %+v", sp)
	}
}

// recordTrace drives one fabricated request through the recorder: a root
// span of the given duration with one annotated child.
func recordTrace(r *Recorder, endpoint, family string, dur time.Duration) TraceID {
	id := NewTraceID()
	sc := SpanContext{Trace: id, Tracer: r}
	root := StartSpanIn(sc, "serve"+endpoint)
	child := StartSpanIn(sc.ChildOf(root.ID), "item."+family)
	child.Set("cached", 1)
	child.FinishTo(r)
	r.Annotate(id, QueryMeta{Family: family, W: []float64{0.3, 0.7}, K: 5, Cached: true})
	root.Duration = dur
	r.Record(root, endpoint, 200)
	return id
}

func TestRecorderSnapshot(t *testing.T) {
	r := NewRecorder(64, time.Second, nil)
	id := recordTrace(r, "/v1/query", "topk", 10*time.Millisecond)
	recordTrace(r, "/v1/insert", "kspr", 20*time.Millisecond)

	all := r.Snapshot(0, "", 0)
	if len(all) != 2 {
		t.Fatalf("Snapshot returned %d traces, want 2", len(all))
	}
	// Newest first.
	if all[0].Endpoint != "/v1/insert" || all[1].Endpoint != "/v1/query" {
		t.Fatalf("order = %s, %s", all[0].Endpoint, all[1].Endpoint)
	}

	byFamily := r.Snapshot(0, "topk", 0)
	if len(byFamily) != 1 || byFamily[0].ID != id {
		t.Fatalf("family filter returned %d traces", len(byFamily))
	}
	if q := byFamily[0].Queries; len(q) != 1 || q[0].K != 5 || !q[0].Cached {
		t.Fatalf("query annotations = %+v", byFamily[0].Queries)
	}
	if len(byFamily[0].Spans) != 1 || byFamily[0].Spans[0].Name != "item.topk" {
		t.Fatalf("child spans = %+v", byFamily[0].Spans)
	}

	if got := r.Snapshot(15*time.Millisecond, "", 0); len(got) != 1 || got[0].Endpoint != "/v1/insert" {
		t.Fatalf("min-duration filter returned %d traces", len(got))
	}
	if got := r.Snapshot(0, "", 1); len(got) != 1 {
		t.Fatalf("n bound returned %d traces", len(got))
	}
}

func TestRecorderSlowTierSurvivesRingLap(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	r := NewRecorder(8, 50*time.Millisecond, log)
	slow := recordTrace(r, "/v1/query", "topk", 80*time.Millisecond)
	// Lap every shard's ring with fast traffic.
	for i := 0; i < 64; i++ {
		recordTrace(r, "/v1/query", "topk", time.Millisecond)
	}
	got := r.Snapshot(50*time.Millisecond, "", 0)
	if len(got) != 1 || got[0].ID != slow || !got[0].Slow {
		t.Fatalf("slow trace not retained after ring lap: %+v", got)
	}
	if !strings.Contains(buf.String(), "slow query captured") ||
		!strings.Contains(buf.String(), slow.String()) {
		t.Fatalf("slow query not logged:\n%s", buf.String())
	}
}

// TestSnapshotKeepsDistributedLegs: a follower bootstrap produces several
// primary-side request traces sharing one trace id (the snapshot-stream
// fetch plus tail fetches). Snapshot dedupes by trace identity, not id, so
// every leg stays retrievable.
func TestSnapshotKeepsDistributedLegs(t *testing.T) {
	r := NewRecorder(64, time.Second, nil)
	id := NewTraceID()
	sc := SpanContext{Trace: id, Tracer: r}
	for _, endpoint := range []string{"/v1/admin/snapshot/stream", "/v1/admin/wal", "/v1/admin/wal"} {
		root := StartSpanIn(sc, "serve"+endpoint)
		root.Duration = time.Millisecond
		r.Record(root, endpoint, 200)
	}
	got := r.Snapshot(0, "", 0)
	if len(got) != 3 {
		t.Fatalf("Snapshot kept %d of 3 legs sharing trace id %s: %+v", len(got), id, got)
	}
	for _, tr := range got {
		if tr.ID != id {
			t.Fatalf("leg has trace id %s, want %s", tr.ID, id)
		}
	}
}

func TestRecorderBoundsAndNilSafety(t *testing.T) {
	var nilRec *Recorder
	nilRec.Span(Span{Trace: TraceID{Lo: 1}, ID: 2})
	nilRec.Annotate(TraceID{Lo: 1}, QueryMeta{})
	nilRec.Record(Span{Trace: TraceID{Lo: 1}}, "/x", 200)
	if got := nilRec.Snapshot(0, "", 0); got != nil {
		t.Fatalf("nil recorder Snapshot = %v", got)
	}

	r := NewRecorder(8, -1, nil)
	// Spans without a trace id have no owner and are dropped silently.
	r.Span(Span{Name: "loose", ID: NewSpanID()})
	if got := r.Snapshot(0, "", 0); len(got) != 0 {
		t.Fatalf("loose span produced a trace: %v", got)
	}
	// A negative threshold disables the slow tier entirely.
	recordTrace(r, "/v1/query", "topk", time.Hour)
	if got := r.Snapshot(0, "", 0); len(got) != 1 || got[0].Slow {
		t.Fatalf("slow tier not disabled: %+v", got)
	}
	// Per-trace span cap increments the dropped counter.
	id := NewTraceID()
	sc := SpanContext{Trace: id, Tracer: r}
	for i := 0; i < maxSpansPerTrace+5; i++ {
		sp := StartSpanIn(sc, "burst")
		sp.FinishTo(r)
	}
	if got := r.DroppedSpans(); got != 5 {
		t.Fatalf("DroppedSpans = %d, want 5", got)
	}
}

func TestTraceTree(t *testing.T) {
	r := NewRecorder(8, -1, nil)
	id := NewTraceID()
	sc := SpanContext{Trace: id, Tracer: r}
	root := StartSpanIn(sc, "serve/v1/query/batch")
	under := sc.ChildOf(root.ID)

	single := StartSpanIn(under, "item.maxrank")
	single.Set("cached", 1)
	single.FinishTo(r)

	walk := StartSpanIn(under, "query.topkbatch")
	item := StartSpanIn(under.ChildOf(walk.ID), "item.topk")
	item.Err = errors.New("boom")
	item.FinishTo(r)
	walk.FinishTo(r)

	orphan := StartSpanIn(sc.ChildOf(12345), "orphan") // parent never recorded
	orphan.FinishTo(r)

	root.Duration = time.Millisecond
	r.Record(root, "/v1/query/batch", 200)

	traces := r.Snapshot(0, "", 0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	tree := traces[0].Tree()
	if tree.Name != "serve/v1/query/batch" || tree.SpanID != SpanIDString(root.ID) {
		t.Fatalf("root node = %+v", tree)
	}
	// single, walk, orphan attach to the root; item nests under the walk.
	if len(tree.Children) != 3 {
		t.Fatalf("root children = %d, want 3", len(tree.Children))
	}
	var walkNode *SpanNode
	for _, c := range tree.Children {
		if c.Name == "query.topkbatch" {
			walkNode = c
		}
		if c.Name == "item.maxrank" && c.Attrs["cached"] != 1 {
			t.Fatalf("single item attrs = %v", c.Attrs)
		}
	}
	if walkNode == nil || len(walkNode.Children) != 1 || walkNode.Children[0].Name != "item.topk" {
		t.Fatalf("walk subtree wrong: %+v", walkNode)
	}
	if walkNode.Children[0].Err != "boom" {
		t.Fatalf("item error = %q", walkNode.Children[0].Err)
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("tlx_ex_seconds", "", []float64{0.1}, Label{"op", "q"})
	worst := NewTraceID()
	h.ObserveWithExemplar(0.02, NewTraceID())
	h.ObserveWithExemplar(0.9, worst)
	h.ObserveWithExemplar(0.05, NewTraceID()) // not the worst; must not displace
	h.ObserveWithExemplar(0.01, TraceID{})    // untraced observation carries none

	// The classic 0.0.4 exposition has no exemplar syntax: a pending
	// exemplar must neither render there nor be consumed by the scrape.
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "#") && strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("0.0.4 exposition carries an exemplar:\n%s", buf.String())
	}

	buf.Reset()
	r.WriteOpenMetrics(&buf)
	want := `tlx_ex_seconds_bucket{op="q",le="+Inf"} 4 # {trace_id="` + worst.String() + `"} 0.9`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exemplar missing; want %q in:\n%s", want, buf.String())
	}
	if !strings.HasSuffix(buf.String(), "# EOF\n") {
		t.Fatalf("OpenMetrics exposition missing # EOF trailer:\n%s", buf.String())
	}

	// The exemplar is consumed by the OpenMetrics scrape; the next
	// exposition is bare until a new traced observation arrives.
	buf.Reset()
	r.WriteOpenMetrics(&buf)
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("exemplar not cleared by scrape:\n%s", buf.String())
	}
}

func TestHotCells(t *testing.T) {
	var nilH *HotCells
	nilH.Observe(1) // nil-safe
	if got := nilH.Top(5); got != nil {
		t.Fatalf("nil Top = %v", got)
	}

	h := NewHotCells(16, 1) // record everything
	if h.SampleEvery() != 1 {
		t.Fatalf("SampleEvery = %d, want 1", h.SampleEvery())
	}
	for i := 0; i < 10; i++ {
		h.Observe(0xAA)
	}
	h.Observe(0xBB)
	top := h.Top(0)
	if len(top) != 2 || top[0].Cell != 0xAA {
		t.Fatalf("Top = %+v", top)
	}
	if top[0].Total != 10 || top[1].Total != 1 {
		t.Fatalf("hot cell counts = %+v", top[0])
	}
	if got := h.Top(1); len(got) != 1 {
		t.Fatalf("Top(1) returned %d", len(got))
	}
}

func TestHotCellsSampling(t *testing.T) {
	h := NewHotCells(16, 4)
	if h.SampleEvery() != 4 {
		t.Fatalf("SampleEvery = %d, want 4", h.SampleEvery())
	}
	for i := 0; i < 400; i++ {
		h.Observe(0xCC)
	}
	top := h.Top(0)
	if len(top) != 1 || top[0].Total != 100 {
		t.Fatalf("sampled counts = %+v", top)
	}
	// A non-power-of-two divisor rounds down to one.
	if got := NewHotCells(16, 7).SampleEvery(); got != 4 {
		t.Fatalf("SampleEvery(7) = %d, want 4", got)
	}
}

// TestHotCellsChurnLosesNothing: every sampled observation lands in exactly
// one resident slot even while concurrent admits evict slots, so the sum of
// slot totals (eviction floors included) equals the observation count — the
// space-saving invariant a lock-free bump-after-lookup would violate. Run
// under -race this also exercises the lock discipline.
func TestHotCellsChurnLosesNothing(t *testing.T) {
	h := NewHotCells(4, 1) // one slot per shard: constant eviction churn
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for _, s := range h.Top(0) {
		sum += s.Total
	}
	if sum != goroutines*per {
		t.Fatalf("slot totals sum to %d, want %d: increments lost under eviction churn", sum, goroutines*per)
	}
}

func TestHotCellsEviction(t *testing.T) {
	h := NewHotCells(4, 1) // one slot per shard
	// Make one cell hot, then flood its shard with cold newcomers.
	shardOf := func(cell uint64) uint64 { return splitmix64(cell) & (hcShards - 1) }
	hot := uint64(1)
	for i := 0; i < 50; i++ {
		h.Observe(hot)
	}
	evictions := 0
	for c := uint64(2); evictions < 3; c++ {
		if shardOf(c) == shardOf(hot) {
			h.Observe(c)
			evictions++
		}
	}
	top := h.Top(0)
	// The table stayed bounded (one slot in the hot cell's shard) and the
	// surviving slot's total carries the evicted history as a floor, so the
	// shard's traffic count never shrinks below what the hot cell had.
	perShard := 0
	var best CellStat
	for _, s := range top {
		if shardOf(s.Cell) == shardOf(hot) {
			perShard++
			best = s
		}
	}
	if perShard != 1 {
		t.Fatalf("shard holds %d slots, want 1: %+v", perShard, top)
	}
	if best.Total < 50 {
		t.Fatalf("eviction lost the hot cell's history: %+v", best)
	}
}
