package tlevelindex_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
)

var obsHotels = [][]float64{
	{0.62, 0.76}, {0.90, 0.48}, {0.73, 0.33}, {0.26, 0.64}, {0.30, 0.24},
	{0.81, 0.59}, {0.45, 0.88}, {0.12, 0.93}, {0.67, 0.51}, {0.38, 0.42},
}

// TestContextCancelPartialStats pins the documented cancellation guarantee:
// an abandoned traversal returns the context's error together with a
// non-nil result whose Stats report the work done before the abandonment.
// kSPR and MaxRank are lookups that poll before they read, so theirs is
// none.
func TestContextCancelPartialStats(t *testing.T) {
	ix, err := tlx.Build(obsHotels, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := ix.TopKContext(ctx, []float64{0.5, 0.5}, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TopKContext err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("TopKContext returned a nil result on cancellation")
	}
	if res.Stats.VisitedCells < 1 {
		t.Errorf("TopKContext partial stats: VisitedCells = %d, want >= 1", res.Stats.VisitedCells)
	}

	kres, err := ix.KSPRContext(ctx, 3, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("KSPRContext err = %v, want context.Canceled", err)
	}
	if kres == nil || kres.Stats != (tlx.QueryStats{}) {
		t.Errorf("KSPRContext partial result = %+v", kres)
	}
	if len(kres.Regions) != 0 {
		t.Errorf("KSPRContext on cancellation leaked %d regions", len(kres.Regions))
	}

	mres, err := ix.MaxRankContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("MaxRankContext err = %v, want context.Canceled", err)
	}
	if mres == nil || mres.Stats != (tlx.QueryStats{}) {
		t.Errorf("MaxRankContext partial result = %+v", mres)
	}

	// Validation failures still return a nil result: no traversal ran.
	if res, err := ix.TopKContext(ctx, []float64{0.5, 0.5}, 0); err == nil || res != nil {
		t.Errorf("invalid k: res=%v err=%v, want nil result and an error", res, err)
	}
}

// spanCollector is a thread-safe Tracer for tests.
type spanCollector struct {
	mu    sync.Mutex
	spans []tlx.Span
}

func (c *spanCollector) Span(s tlx.Span) {
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *spanCollector) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.spans))
	for i, s := range c.spans {
		out[i] = s.Name
	}
	return out
}

// TestBuildLevelPhaseSpans: every "build.level" span of a traced PBA⁺
// build has exactly one compute, apply and merge span for its level, each
// inside the level's interval, together no longer than the level.
func TestBuildLevelPhaseSpans(t *testing.T) {
	tr := &spanCollector{}
	data := datagen.Generate(datagen.IND, 400, 3, 1)
	if _, err := tlx.Build(data, 4, tlx.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{"build.level.compute": true, "build.level.apply": true, "build.level.merge": true}
	byLevel := map[float64][]tlx.Span{}
	var levels []tlx.Span
	for _, sp := range tr.spans {
		lv, _ := sp.Get("level")
		switch {
		case sp.Name == "build.level":
			levels = append(levels, sp)
		case phases[sp.Name]:
			byLevel[lv] = append(byLevel[lv], sp)
		}
	}
	if len(levels) != 4 {
		t.Fatalf("%d build.level spans, want 4", len(levels))
	}
	for _, lvl := range levels {
		lv, _ := lvl.Get("level")
		kids := byLevel[lv]
		seen := map[string]int{}
		var sum time.Duration
		end := lvl.Start.Add(lvl.Duration)
		for _, k := range kids {
			seen[k.Name]++
			sum += k.Duration
			if k.Start.Before(lvl.Start) || k.Start.Add(k.Duration).After(end) {
				t.Errorf("level %v: %s [%v +%v] outside the level [%v +%v]",
					lv, k.Name, k.Start, k.Duration, lvl.Start, lvl.Duration)
			}
		}
		for name := range phases {
			if seen[name] != 1 {
				t.Errorf("level %v: %d %s spans, want 1", lv, seen[name], name)
			}
		}
		if sum > lvl.Duration {
			t.Errorf("level %v: phases sum to %v, more than the level's %v", lv, sum, lvl.Duration)
		}
	}
}

// TestQuerySpans: an attached tracer receives one completed span per
// context query, carrying the traversal measurements; detaching stops the
// flow immediately.
func TestQuerySpans(t *testing.T) {
	ix, err := tlx.Build(obsHotels, 4)
	if err != nil {
		t.Fatal(err)
	}
	tr := &spanCollector{}
	ix.SetTracer(tr)

	ctx := context.Background()
	if _, err := ix.TopKContext(ctx, []float64{0.5, 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.KSPRContext(ctx, 2, 0); err != nil {
		t.Fatal(err)
	}
	names := tr.names()
	if len(names) != 2 || names[0] != "query.topk" || names[1] != "query.kspr" {
		t.Fatalf("span names = %v, want [query.topk query.kspr]", names)
	}
	tr.mu.Lock()
	top := tr.spans[0]
	tr.mu.Unlock()
	if v, ok := top.Get("visitedCells"); !ok || v < 1 {
		t.Errorf("topk span visitedCells = %v (ok=%v), want >= 1", v, ok)
	}
	if top.Duration <= 0 {
		t.Errorf("topk span duration = %v, want > 0", top.Duration)
	}

	ix.SetTracer(nil)
	if _, err := ix.TopKContext(ctx, []float64{0.5, 0.5}, 2); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.names()); got != 2 {
		t.Errorf("detached tracer still received spans: %d total", got)
	}
}

// TestBuildTracerAndProgress: WithTracer sees the build phases and
// per-level spans; WithProgress reports each level with a cells/sec rate.
func TestBuildTracerAndProgress(t *testing.T) {
	tr := &spanCollector{}
	var reports []tlx.BuildProgress
	ix, err := tlx.Build(obsHotels, 4,
		tlx.WithTracer(tr),
		tlx.WithProgress(func(p tlx.BuildProgress) { reports = append(reports, p) }))
	if err != nil {
		t.Fatal(err)
	}
	names := tr.names()
	var sawFilter, sawBuild, sawLevel, sawCompact bool
	for _, n := range names {
		switch n {
		case "build.filter":
			sawFilter = true
		case "build.PBA+":
			sawBuild = true
		case "build.level":
			sawLevel = true
		case "build.compact":
			sawCompact = true
		}
	}
	if !sawFilter || !sawBuild || !sawLevel || !sawCompact {
		t.Errorf("build spans = %v, want filter/PBA+/level/compact all present", names)
	}
	if len(reports) != ix.Tau() {
		t.Errorf("progress reports = %d, want one per level (%d)", len(reports), ix.Tau())
	}
	for _, p := range reports {
		if p.Algorithm != "PBA+" || p.Level < 1 || p.Level > p.MaxLevel || p.LevelCells < 1 {
			t.Errorf("bad progress report %+v", p)
		}
	}
}
