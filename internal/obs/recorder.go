package obs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder keeps the last completed request traces in memory so
// an operator can ask "what did that slow request actually do" after the
// fact, without any external tracing infrastructure. It is a Tracer: child
// spans delivered during a request accumulate per trace id, and when the
// serve layer finishes the root span the assembled trace enters a
// fixed-capacity ring of recent traces. Requests at least SlowThreshold
// slow additionally enter a separate slow tier — which a flood of fast
// traffic cannot wash out — and are logged at Warn with their trace id.
//
// Memory bounds: capacity traces in the recent ring plus slowCap in the
// slow tier, each holding its spans and query annotations; an active
// (unfinished) trace may buffer at most maxActive traces per shard and
// maxSpansPerTrace spans each before further spans are dropped. Everything
// is bounded, nothing grows with uptime.

// maxSpansPerTrace bounds one trace's buffered child spans: a runaway
// batch cannot pin unbounded memory. The envelope caps batches at 1024
// items; two spans per item stays recordable.
const maxSpansPerTrace = 2048

// maxActivePerShard bounds in-flight trace accumulators per shard. Traces
// are finished by the same request that starts them, so the active set
// tracks request concurrency, not traffic volume.
const maxActivePerShard = 512

// recShards is the recorder's lock-spreading factor.
const recShards = 8

// CellKey is a cell-chain key inside a trace annotation. It stays a raw
// integer on the hot path and renders as 16 hex digits only when the trace
// is serialized for the admin endpoint.
type CellKey uint64

// String renders the key as 16 lowercase hex digits.
func (c CellKey) String() string { return SpanIDString(uint64(c)) }

// MarshalJSON renders the key as a quoted 16-hex-digit string.
func (c CellKey) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 18)
	b = append(b, '"')
	b = append(b, c.String()...)
	b = append(b, '"')
	return b, nil
}

// UnmarshalJSON parses the quoted hex form (for test round-trips).
func (c *CellKey) UnmarshalJSON(data []byte) error {
	if len(data) == 18 && data[0] == '"' && data[17] == '"' {
		var raw [8]byte
		if _, err := hex.Decode(raw[:], data[1:17]); err == nil {
			*c = CellKey(binary.BigEndian.Uint64(raw[:]))
			return nil
		}
	}
	return fmt.Errorf("obs: malformed cell key %s", data)
}

// QueryMeta is one query's identity within a trace: which family ran, at
// which preference vector and depth, which cell it landed in, and what it
// cost. The slow tier retains it in full so a slow request can be replayed
// exactly.
type QueryMeta struct {
	Family string    `json:"family"`
	W      []float64 `json:"w,omitempty"`
	K      int       `json:"k,omitempty"`
	Cell   CellKey   `json:"cell,omitempty"` // hex cell-chain key; 0 when none

	VisitedCells int `json:"visitedCells"`
	LPCalls      int `json:"lpCalls"`
}

// Trace is one completed, immutable request trace.
type Trace struct {
	ID       TraceID
	Root     Span
	Spans    []Span // child spans in completion order
	Queries  []QueryMeta
	Endpoint string
	Status   int
	Slow     bool
}

// traceAcc accumulates a trace's child spans until the root finishes.
type traceAcc struct {
	spans   []Span
	queries []QueryMeta
}

type recShard struct {
	mu     sync.Mutex
	active map[TraceID]*traceAcc
	ring   []*Trace // fixed capacity, next points at the oldest slot
	next   int
	filled bool
}

// Recorder is the bounded in-memory flight recorder. It is safe for
// concurrent use; a nil *Recorder is a valid no-op receiver for Span, so
// instrumented code may hold one unconditionally.
type Recorder struct {
	shards [recShards]recShard

	slowMu   sync.Mutex
	slow     []*Trace
	slowNext int
	slowFull bool

	slowThreshold time.Duration
	log           *slog.Logger

	dropped atomic.Uint64 // spans dropped by the active-trace bounds
}

// DefaultTraceBuffer is the recent-trace ring capacity selected by
// NewRecorder when capacity is 0.
const DefaultTraceBuffer = 256

// DefaultSlowThreshold is the slow-tier admission threshold selected by
// NewRecorder when threshold is 0.
const DefaultSlowThreshold = 100 * time.Millisecond

// NewRecorder returns a recorder retaining the last capacity completed
// traces (0 selects DefaultTraceBuffer) and, separately, the last
// capacity/4 (min 16) traces at least threshold slow (0 selects
// DefaultSlowThreshold; negative disables the slow tier). Slow traces log
// at Warn through log; nil discards.
func NewRecorder(capacity int, threshold time.Duration, log *slog.Logger) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceBuffer
	}
	if threshold == 0 {
		threshold = DefaultSlowThreshold
	}
	per := (capacity + recShards - 1) / recShards
	if per < 1 {
		per = 1
	}
	slowCap := capacity / 4
	if slowCap < 16 {
		slowCap = 16
	}
	r := &Recorder{slowThreshold: threshold, log: log}
	if r.log == nil {
		r.log = NopLogger()
	}
	for i := range r.shards {
		r.shards[i].active = make(map[TraceID]*traceAcc)
		r.shards[i].ring = make([]*Trace, per)
	}
	r.slow = make([]*Trace, slowCap)
	return r
}

// SlowThreshold is the slow-tier admission threshold (negative: disabled).
func (r *Recorder) SlowThreshold() time.Duration { return r.slowThreshold }

func (r *Recorder) shard(t TraceID) *recShard {
	return &r.shards[t.Lo&(recShards-1)]
}

// Span implements Tracer: completed child spans buffer under their trace id
// until the root finishes. Spans without a trace id have no owner and are
// dropped — the recorder records requests, not loose instrumentation. Safe
// on a nil receiver.
func (r *Recorder) Span(s Span) {
	if r == nil || s.Trace.IsZero() {
		return
	}
	sh := r.shard(s.Trace)
	sh.mu.Lock()
	acc := sh.active[s.Trace]
	if acc == nil {
		if len(sh.active) >= maxActivePerShard {
			sh.mu.Unlock()
			r.dropped.Add(1)
			return
		}
		// Pre-size for the common single-query shape (pick + item + walk):
		// one allocation instead of a doubling walk over large Span values.
		acc = &traceAcc{spans: make([]Span, 0, 4)}
		sh.active[s.Trace] = acc
	}
	if len(acc.spans) >= maxSpansPerTrace {
		sh.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	acc.spans = append(acc.spans, s)
	sh.mu.Unlock()
}

// Annotate attaches one query's identity to the in-flight trace; the slow
// tier retains it verbatim (preference vector included). Bounded like
// spans. Safe on a nil receiver.
func (r *Recorder) Annotate(t TraceID, m QueryMeta) {
	if r == nil || t.IsZero() {
		return
	}
	sh := r.shard(t)
	sh.mu.Lock()
	acc := sh.active[t]
	if acc == nil {
		if len(sh.active) >= maxActivePerShard {
			sh.mu.Unlock()
			return
		}
		acc = &traceAcc{}
		sh.active[t] = acc
	}
	if len(acc.queries) < maxSpansPerTrace {
		acc.queries = append(acc.queries, m)
	}
	sh.mu.Unlock()
}

// Record completes a trace: root is the finished envelope span (Duration
// already stamped), endpoint and status describe the HTTP outcome. The
// accumulated child spans are claimed, the assembled trace enters the
// recent ring, and — at or beyond the slow threshold — the slow tier and
// the Warn log.
func (r *Recorder) Record(root Span, endpoint string, status int) {
	if r == nil || root.Trace.IsZero() {
		return
	}
	sh := r.shard(root.Trace)
	sh.mu.Lock()
	acc := sh.active[root.Trace]
	delete(sh.active, root.Trace)
	tr := &Trace{ID: root.Trace, Root: root, Endpoint: endpoint, Status: status}
	if acc != nil {
		tr.Spans = acc.spans
		tr.Queries = acc.queries
	}
	tr.Slow = r.slowThreshold >= 0 && root.Duration >= r.slowThreshold
	sh.ring[sh.next] = tr
	sh.next++
	if sh.next == len(sh.ring) {
		sh.next, sh.filled = 0, true
	}
	sh.mu.Unlock()
	if !tr.Slow {
		return
	}
	r.slowMu.Lock()
	r.slow[r.slowNext] = tr
	r.slowNext++
	if r.slowNext == len(r.slow) {
		r.slowNext, r.slowFull = 0, true
	}
	r.slowMu.Unlock()
	family := ""
	if len(tr.Queries) > 0 {
		family = tr.Queries[0].Family
	}
	r.log.Warn("slow query captured",
		"traceId", root.Trace.String(), "endpoint", endpoint, "status", status,
		"durMs", float64(root.Duration)/float64(time.Millisecond),
		"family", family, "queries", len(tr.Queries), "spans", len(tr.Spans))
}

// DroppedSpans counts spans discarded by the active-trace bounds.
func (r *Recorder) DroppedSpans() uint64 { return r.dropped.Load() }

// matches reports whether tr passes the Snapshot filters.
func (tr *Trace) matches(minDur time.Duration, family string) bool {
	if tr.Root.Duration < minDur {
		return false
	}
	if family == "" {
		return true
	}
	for i := range tr.Queries {
		if tr.Queries[i].Family == family {
			return true
		}
	}
	return false
}

// Snapshot returns up to n retained traces at least minDur slow and — when
// family is non-empty — touching that query family, newest first. The slow
// tier is consulted alongside the recent rings, so a slow request stays
// retrievable after fast traffic has lapped the ring. Dedup is by trace
// identity (the *Trace held by both tiers), never by trace id: one
// distributed trace legitimately spans several recorded legs — a follower
// bootstrap's snapshot-stream fetch plus its tail fetches all share the
// follower's trace id — and every leg must stay retrievable.
func (r *Recorder) Snapshot(minDur time.Duration, family string, n int) []*Trace {
	if r == nil {
		return nil
	}
	if n <= 0 {
		n = 50
	}
	seen := make(map[*Trace]bool)
	var out []*Trace
	collect := func(tr *Trace) {
		if tr == nil || seen[tr] || !tr.matches(minDur, family) {
			return
		}
		seen[tr] = true
		out = append(out, tr)
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		limit := sh.next
		if sh.filled {
			limit = len(sh.ring)
		}
		for j := 0; j < limit; j++ {
			collect(sh.ring[j])
		}
		sh.mu.Unlock()
	}
	r.slowMu.Lock()
	limit := r.slowNext
	if r.slowFull {
		limit = len(r.slow)
	}
	for j := 0; j < limit; j++ {
		collect(r.slow[j])
	}
	r.slowMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Root.Start.After(out[j].Root.Start) })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// SpanNode is one node of a rendered span tree.
type SpanNode struct {
	Name     string             `json:"name"`
	SpanID   string             `json:"spanId"`
	ParentID string             `json:"parentId,omitempty"`
	OffsetMs float64            `json:"offsetMs"` // start relative to the root span
	DurMs    float64            `json:"durMs"`
	Err      string             `json:"err,omitempty"`
	Attrs    map[string]float64 `json:"attrs,omitempty"`
	Children []*SpanNode        `json:"children,omitempty"`
}

func nodeFor(s *Span, rootStart time.Time) *SpanNode {
	n := &SpanNode{
		Name:     s.Name,
		SpanID:   SpanIDString(s.ID),
		OffsetMs: float64(s.Start.Sub(rootStart)) / float64(time.Millisecond),
		DurMs:    float64(s.Duration) / float64(time.Millisecond),
	}
	if s.Parent != 0 {
		n.ParentID = SpanIDString(s.Parent)
	}
	if s.Err != nil {
		n.Err = s.Err.Error()
	}
	if attrs := s.Attrs(); len(attrs) > 0 {
		n.Attrs = make(map[string]float64, len(attrs))
		for _, a := range attrs {
			n.Attrs[a.Key] = a.Value
		}
	}
	return n
}

// Tree assembles the trace's span tree rooted at the envelope span.
// Children attach to their parent by span id; spans whose parent was
// dropped (or never recorded) attach to the root so nothing disappears.
func (tr *Trace) Tree() *SpanNode {
	root := nodeFor(&tr.Root, tr.Root.Start)
	byID := make(map[uint64]*SpanNode, len(tr.Spans)+1)
	byID[tr.Root.ID] = root
	nodes := make([]*SpanNode, len(tr.Spans))
	for i := range tr.Spans {
		nodes[i] = nodeFor(&tr.Spans[i], tr.Root.Start)
		byID[tr.Spans[i].ID] = nodes[i]
	}
	for i := range tr.Spans {
		parent := byID[tr.Spans[i].Parent]
		if parent == nil || parent == nodes[i] {
			parent = root
		}
		parent.Children = append(parent.Children, nodes[i])
	}
	return root
}
