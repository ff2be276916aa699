package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// maxAttrs bounds the measurements a span can carry. Spans are plain values
// with a fixed-size attribute array so that emitting one performs no heap
// allocation; instrumented code only touches a span at all when a tracer is
// attached, so the disabled path costs a single nil check.
const maxAttrs = 10

// Attr is one numeric measurement on a span (counts, ratios, sizes).
type Attr struct {
	Key   string
	Value float64
}

// TraceID is a W3C Trace Context 128-bit trace identifier. The zero value
// means "not part of any trace" and is never generated.
type TraceID struct{ Hi, Lo uint64 }

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the id as 32 lowercase hex digits (the traceparent form).
func (t TraceID) String() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], t.Hi)
	binary.BigEndian.PutUint64(b[8:], t.Lo)
	return hex.EncodeToString(b[:])
}

// ParseTraceID parses 32 hex digits; ok is false for malformed or all-zero
// input (the spec treats a zero trace-id as invalid).
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 32 {
		return TraceID{}, false
	}
	var b [16]byte
	if _, err := hex.Decode(b[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	t := TraceID{Hi: binary.BigEndian.Uint64(b[:8]), Lo: binary.BigEndian.Uint64(b[8:])}
	return t, !t.IsZero()
}

// idState seeds the id generator with the process start time so ids differ
// across restarts; the sequence itself is a splitmix64 walk — unique and
// well-distributed, which is all trace ids need to be (they are
// correlation handles, not secrets).
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// splitmix64 is the finalizer from Vigna's SplitMix64 generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID returns a fresh non-zero trace id. Safe for concurrent use;
// allocation-free.
func NewTraceID() TraceID {
	for {
		s := idState.Add(2)
		t := TraceID{Hi: splitmix64(s - 1), Lo: splitmix64(s)}
		if !t.IsZero() {
			return t
		}
	}
}

// NewSpanID returns a fresh non-zero span id.
func NewSpanID() uint64 {
	for {
		if id := splitmix64(idState.Add(1)); id != 0 {
			return id
		}
	}
}

// SpanIDString renders a span id as 16 lowercase hex digits.
func SpanIDString(id uint64) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], id)
	return hex.EncodeToString(b[:])
}

// Traceparent renders a W3C traceparent header value (version 00, sampled
// flag set) for the given trace and span. Rendered into one buffer — this
// runs once per traced request.
func Traceparent(t TraceID, span uint64) string {
	var raw [16]byte
	b := make([]byte, 55)
	b[0], b[1], b[2] = '0', '0', '-'
	binary.BigEndian.PutUint64(raw[:8], t.Hi)
	binary.BigEndian.PutUint64(raw[8:], t.Lo)
	hex.Encode(b[3:35], raw[:])
	b[35] = '-'
	binary.BigEndian.PutUint64(raw[:8], span)
	hex.Encode(b[36:52], raw[:8])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b)
}

// ParseTraceparent parses a W3C traceparent header value, accepting any
// version whose first fields have the version-00 layout (trailing fields
// after a further '-' are tolerated, as future versions may add them). ok
// is false for malformed headers — a non-hex or forbidden "ff" version,
// malformed trace-flags — and for the invalid all-zero ids. sampled is the
// trace-flags sampled bit: a caller that sends flags 00 explicitly opted
// the request out of recording, and callers should honor that.
func ParseTraceparent(s string) (t TraceID, span uint64, sampled, ok bool) {
	// version "00" layout: 2-35-52-55 with '-' separators.
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceID{}, 0, false, false
	}
	if len(s) > 55 && s[55] != '-' {
		return TraceID{}, 0, false, false
	}
	var ver [1]byte
	if _, err := hex.Decode(ver[:], []byte(s[:2])); err != nil || ver[0] == 0xff {
		return TraceID{}, 0, false, false
	}
	t, ok = ParseTraceID(s[3:35])
	if !ok {
		return TraceID{}, 0, false, false
	}
	var b [8]byte
	if _, err := hex.Decode(b[:], []byte(s[36:52])); err != nil {
		return TraceID{}, 0, false, false
	}
	span = binary.BigEndian.Uint64(b[:])
	if span == 0 {
		return TraceID{}, 0, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return TraceID{}, 0, false, false
	}
	return t, span, flags[0]&0x01 == 0x01, true
}

// SpanContext is the request-scoped trace position carried through
// context.Context: the trace this request belongs to, the span id new child
// spans should name as their parent, and the tracer that collects them.
type SpanContext struct {
	Trace  TraceID
	Span   uint64 // parent id for spans started under this context
	Tracer Tracer // destination for spans in this trace
}

// spanCtxKey is the context key for SpanContext; an empty struct boxes
// without allocating.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc; child operations pick it
// up via SpanContextFrom and parent their spans under sc.Span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts the trace position from ctx. The lookup is
// allocation-free; ok is false when the request is untraced.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// ChildOf returns a SpanContext for operations nested under span id —
// same trace, same tracer, new parent.
func (sc SpanContext) ChildOf(span uint64) SpanContext {
	return SpanContext{Trace: sc.Trace, Span: span, Tracer: sc.Tracer}
}

// Span is one completed instrumented operation: a query traversal, a build
// phase, a level of a build. The value passed to a Tracer is a copy;
// implementations may retain it.
//
// Trace, ID and Parent position the span in a request's span tree: all
// three are zero for standalone spans (a tracer attached directly to an
// index with no request context), and the recorder drops such spans rather
// than guessing an owner.
type Span struct {
	Name     string // e.g. "query.topk", "build.pba+", "build.level"
	Start    time.Time
	Duration time.Duration
	Err      error // non-nil when the operation was abandoned (e.g. ctx canceled)

	Trace  TraceID // owning trace; zero outside any request trace
	ID     uint64  // this span's id within the trace
	Parent uint64  // parent span id; zero for a trace root

	attrs [maxAttrs]Attr
	n     int
}

// StartSpanIn begins a span positioned in sc's trace: the span joins
// sc.Trace with sc.Span as its parent and a fresh id of its own. The
// companion context for operations nested under the new span is
// sc.ChildOf(span.ID).
func StartSpanIn(sc SpanContext, name string) Span {
	s := StartSpan(name)
	s.Trace, s.Parent, s.ID = sc.Trace, sc.Span, NewSpanID()
	return s
}

// StartSpan begins a span. Callers should only start spans when a tracer is
// attached; the pattern is
//
//	if tr != nil {
//		sp := obs.StartSpan("query.topk")
//		defer func() { sp.Set("lpCalls", ...); sp.FinishTo(tr) }()
//	}
func StartSpan(name string) Span {
	return Span{Name: name, Start: time.Now()}
}

// Set records a measurement. Attributes beyond the fixed capacity are
// dropped silently: spans are diagnostics, not a durable record.
func (s *Span) Set(key string, v float64) {
	if s.n < maxAttrs {
		s.attrs[s.n] = Attr{key, v}
		s.n++
	}
}

// Get returns the measurement for key, if recorded.
func (s *Span) Get(key string) (float64, bool) {
	for i := 0; i < s.n; i++ {
		if s.attrs[i].Key == key {
			return s.attrs[i].Value, true
		}
	}
	return 0, false
}

// Attrs returns the recorded measurements in insertion order. The slice
// aliases the span's internal array; copy it to retain beyond the callback.
func (s *Span) Attrs() []Attr { return s.attrs[:s.n] }

// FinishTo stamps the duration and delivers the span. A nil tracer is a
// no-op, so call sites can finish unconditionally.
func (s *Span) FinishTo(t Tracer) {
	if t == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	t.Span(*s)
}

// Tracer receives completed spans. Implementations must be safe for
// concurrent use and should return quickly: spans are delivered inline from
// query and build paths. A nil Tracer everywhere means tracing is disabled
// and instrumented code skips span construction entirely.
type Tracer interface {
	Span(s Span)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Span)

// Span implements Tracer.
func (f TracerFunc) Span(s Span) { f(s) }
