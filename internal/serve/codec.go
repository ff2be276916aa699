package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	tlx "tlevelindex"
	"tlevelindex/internal/obs"
)

// The query codec: how a POST /v1/query or /v1/query/batch body becomes
// QueryRequests, and how their items become the response body.
//
// Decode. The body is read once, through the same http.MaxBytesReader as
// every POST, into a pooled buffer. A hand-written parser then accepts a
// strict subset of JSON: the seven QueryRequest keys spelled exactly (and,
// for a batch, a top-level object whose one key is "queries"), strings of
// printable ASCII without escapes, numbers in the JSON grammar that
// strconv parses without error, and whitespace. A duplicate query key takes
// its last value, as in encoding/json. Anything else — an escape, a null, an
// unknown key or a key in another case, a wrong type, a syntax error, a read
// error — and the parser declines: encoding/json decodes the same bytes,
// followed by the same read error, and stays the decoder of record, so every
// status and error body is what it decides. Bytes after the first value are
// ignored either way, as json.Decoder ignores them.
//
// Encode. writeItems builds the body in a pooled respWriter before the
// status line goes out. A successful item is written by hand, its result
// too for every family but WhyNot; a WhyNot result, a failed item and every
// writeJSON body go through encoding/json. Either way the bytes are
// encoding/json's (TestResponsesMatchEncodingJSON).

// queryDecoder is one query request's working memory, from its body to its
// response. Pooled: the handler takes one in decodeQueries and releases it
// once writeItems has sent the body, so everything it hands out — the
// queries, the vector and focal slabs they point into, the items — lives
// as long as the request and is reused by the next one. Nothing that
// outlives the request may keep a reference into it: noteItem copies W
// before the flight recorder keeps it.
type queryDecoder struct {
	body bytes.Buffer
	b    []byte // the bytes being parsed
	pos  int
	// floats holds every w/lo/hi value in body order, and the queries'
	// vectors are windows of it; qs holds the parsed queries.
	floats []float64
	qs     []parsedQuery
	// reqs are the queries handed out, focals the values their Focal
	// fields point to, and items one answer per query.
	reqs   []QueryRequest
	focals []int
	items  []queryItem
}

// parsedQuery is one query as parsed, its vectors located in the float slab.
type parsedQuery struct {
	q         QueryRequest // Family, K and M final
	focal     int
	hasFocal  bool
	w, lo, hi window
}

// window locates one vector in queryDecoder.floats; n < 0 when absent.
type window struct{ off, n int }

var decoderPool = sync.Pool{New: func() any { return new(queryDecoder) }}

// errReader replays a read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// b2f renders a bool as a span attribute value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// decodeQueries reads a /v1/query body (batch false: one query) or a
// /v1/query/batch envelope and returns its queries and the decoder that
// owns them, which the caller releases once the response is sent. On
// failure it has answered the error envelope — 413 for an over-cap body,
// otherwise 400 — released the decoder itself, and reports false. A traced
// request decodes inside a serve.decode span under the handler span,
// carrying the body's bytes, the queries decoded and whether encoding/json
// decided the body (fallback).
func decodeQueries(w http.ResponseWriter, r *http.Request, batch bool) (*queryDecoder, []QueryRequest, bool) {
	sc, traced := obs.SpanContextFrom(r.Context())
	var sp obs.Span
	if traced {
		sp = obs.StartSpanIn(sc, "serve.decode")
	}
	d := decoderPool.Get().(*queryDecoder)
	d.body.Reset()
	_, rerr := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	body := d.body.Bytes()
	qs, ok := []QueryRequest(nil), false
	if rerr == nil {
		qs, ok = d.parse(body, batch)
	}
	d.b = nil
	var err error
	if !ok {
		var rd io.Reader = bytes.NewReader(body)
		if rerr != nil {
			rd = io.MultiReader(rd, errReader{rerr})
		}
		qs, err = decodeFallback(w, rd, batch)
	}
	if traced {
		sp.Err = err
		sp.Set("bytes", float64(len(body)))
		sp.Set("items", float64(len(qs)))
		sp.Set("fallback", b2f(!ok))
		sp.FinishTo(sc.Tracer)
	}
	if err != nil {
		d.release()
		return nil, nil, false
	}
	return d, qs, true
}

// itemsFor returns n empty items, d's.
func (d *queryDecoder) itemsFor(n int) []queryItem {
	if cap(d.items) < n {
		d.items = make([]queryItem, n)
	}
	d.items = d.items[:n]
	return d.items
}

// release clears the queries and items d handed out, so that a pooled
// decoder pins no answer, and returns d to the pool. Past these sizes it is
// dropped instead, as a large respWriter is: one outsized body must not
// keep its scratch alive.
func (d *queryDecoder) release() {
	clear(d.reqs)
	clear(d.items)
	if d.body.Cap() <= maxPooledBytes && cap(d.floats) <= maxPooledBytes/8 && cap(d.qs) <= 2*maxBatchQueries {
		decoderPool.Put(d)
	}
}

// decodeFallback decodes rd with encoding/json, answering the error
// envelope when it refuses.
func decodeFallback(w http.ResponseWriter, rd io.Reader, batch bool) ([]QueryRequest, error) {
	if batch {
		var body batchRequest
		err := decodeJSON(w, rd, "batch", &body)
		return body.Queries, err
	}
	var q QueryRequest
	if err := decodeJSON(w, rd, "query", &q); err != nil {
		return nil, err
	}
	return []QueryRequest{q}, nil
}

// parse decodes body when it lies in the parser's subset: one query, or
// with batch the {"queries":[...]} envelope. It reports false for any body
// outside the subset.
func (d *queryDecoder) parse(body []byte, batch bool) ([]QueryRequest, bool) {
	d.b, d.pos, d.floats, d.qs = body, 0, d.floats[:0], d.qs[:0]
	d.ws()
	if !batch {
		if !d.object() {
			return nil, false
		}
		return d.finish(), true
	}
	seen := false
	ok := d.members(func(key []byte) bool {
		// A second "queries" key would decode into the first one's
		// elements in encoding/json, merging them; the subset has one.
		if seen || string(key) != "queries" {
			return false
		}
		seen = true
		return d.list('[', ']', d.object)
	})
	if !ok || !seen {
		return nil, ok // no "queries": a nil batch
	}
	return d.finish(), true
}

// finish hands out the parsed queries: their vectors are windows of the
// float slab and their focals point into the focal slab, both d's. A batch
// with no queries is empty, not nil, as encoding/json decodes [], and so is
// a present vector with no values.
func (d *queryDecoder) finish() []QueryRequest {
	if d.floats == nil {
		d.floats = []float64{}
	}
	vec := func(v window) []float64 {
		if v.n < 0 {
			return nil
		}
		return d.floats[v.off : v.off+v.n : v.off+v.n]
	}
	if d.reqs == nil || cap(d.reqs) < len(d.qs) {
		d.reqs = make([]QueryRequest, len(d.qs))
	}
	d.reqs = d.reqs[:len(d.qs)]
	// Room for a focal per query, so that no append below moves the slab
	// a Focal already points into.
	d.focals = slices.Grow(d.focals[:0], len(d.qs))
	for i := range d.qs {
		p := &d.qs[i]
		q := &d.reqs[i]
		*q = p.q
		q.W, q.Lo, q.Hi = vec(p.w), vec(p.lo), vec(p.hi)
		if p.hasFocal {
			d.focals = append(d.focals, p.focal)
			q.Focal = &d.focals[len(d.focals)-1]
		}
	}
	return d.reqs
}

// object parses one query object into d.qs.
func (d *queryDecoder) object() bool {
	p := parsedQuery{w: window{n: -1}, lo: window{n: -1}, hi: window{n: -1}}
	ok := d.members(func(key []byte) (ok bool) {
		switch string(key) { // any other key leaves ok false: the parser declines
		case "family":
			var s []byte
			s, ok = d.str()
			p.q.Family = familyName(s)
		case "w":
			p.w, ok = d.vector()
		case "lo":
			p.lo, ok = d.vector()
		case "hi":
			p.hi, ok = d.vector()
		case "k":
			p.q.K, ok = d.int()
		case "m":
			p.q.M, ok = d.int()
		case "focal":
			p.focal, ok = d.int()
			p.hasFocal = true
		}
		return ok
	})
	d.qs = append(d.qs, p)
	return ok
}

// familyName returns the string s spells, interned when it names a family,
// so that no query refers into the pooled body.
func familyName(s []byte) string {
	if spec, ok := families[string(s)]; ok {
		return spec.name
	}
	return string(s)
}

// members parses an object, handing value each key with the cursor at its
// value.
func (d *queryDecoder) members(value func(key []byte) bool) bool {
	return d.list('{', '}', func() bool {
		key, ok := d.str()
		d.ws()
		if !ok || !d.eat(':') {
			return false
		}
		d.ws()
		return value(key)
	})
}

// list parses open, then items separated by commas, each parsed by item,
// then close.
func (d *queryDecoder) list(open, close byte, item func() bool) bool {
	if !d.eat(open) {
		return false
	}
	d.ws()
	if d.eat(close) {
		return true
	}
	for {
		if !item() {
			return false
		}
		d.ws()
		if d.eat(close) {
			return true
		}
		if !d.eat(',') {
			return false
		}
		d.ws()
	}
}

// ws skips JSON whitespace.
func (d *queryDecoder) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c when it is the next byte.
func (d *queryDecoder) eat(c byte) bool {
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// str parses a string of printable ASCII without escapes and returns its
// contents, a window of the body.
func (d *queryDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.pos
	for d.pos < len(d.b) {
		c := d.b[d.pos]
		d.pos++
		switch {
		case c == '"':
			return d.b[start : d.pos-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number returns the next token when it is a number in the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *queryDecoder) number() (string, bool) {
	b, i := d.b, d.pos
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return "", false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return "", false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return "", false
		}
	}
	tok := b[d.pos:i]
	d.pos = i
	// The token is only read by strconv, which keeps no reference to it.
	return unsafe.String(unsafe.SliceData(tok), len(tok)), true
}

// int parses a number field of type int: what encoding/json would store,
// which is what strconv.ParseInt accepts in range.
func (d *queryDecoder) int() (int, bool) {
	tok, ok := d.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(tok, 10, strconv.IntSize)
	return int(v), err == nil
}

// vector parses an array of float64 into d.floats.
func (d *queryDecoder) vector() (window, bool) {
	v := window{off: len(d.floats)}
	ok := d.list('[', ']', func() bool {
		tok, ok := d.number()
		f, err := strconv.ParseFloat(tok, 64) // out of range: encoding/json refuses it too
		d.floats = append(d.floats, f)
		return ok && err == nil
	})
	v.n = len(d.floats) - v.off
	return v, ok
}

// writeItems answers /v1/query (one item, batch false) or /v1/query/batch
// with bytes identical to encoding/json's rendering of the same items: a
// failed single item is the error envelope under its status, a success the
// item, a batch {"results":[...]}. When the request is traced the body is
// built inside a serve.encode span under the handler span.
func writeItems(w http.ResponseWriter, r *http.Request, items []queryItem, batch bool) {
	sc, traced := obs.SpanContextFrom(r.Context())
	var sp obs.Span
	if traced {
		sp = obs.StartSpanIn(sc, "serve.encode")
	}
	rw := respPool.Get().(*respWriter)
	status, err := http.StatusOK, error(nil)
	switch {
	case !batch && items[0].Error != "":
		status, err = items[0].Status, rw.value(errorBody{Error: items[0].Error})
	case !batch:
		err = rw.item(&items[0])
	default:
		rw.b = append(rw.b, `{"results":`...)
		err = rw.array(false, len(items), func(i int) error { return rw.item(&items[i]) })
		rw.b = append(rw.b, '}')
	}
	status = rw.finish(status, err)
	if traced {
		sp.Err = err
		sp.Set("bytes", float64(len(rw.b)))
		if rw.rows > 0 {
			sp.Set("rows", float64(rw.rows))
			sp.Set("distinctRows", float64(len(rw.memo)))
		}
		sp.FinishTo(sc.Tracer)
	}
	rw.send(w, status)
}

// item appends one queryItem as encoding/json renders it. A success is
// written by hand around its result; a failed item goes through the encoder
// whole.
func (rw *respWriter) item(it *queryItem) error {
	if it.Result == nil || it.Stats == nil || it.Error != "" || it.Status != 0 {
		return rw.value(it)
	}
	rw.b = append(rw.b, `{"result":`...)
	if err := rw.result(it.Result); err != nil {
		return err
	}
	rw.b = append(rw.b, `,"stats":{"visitedCells":`...)
	rw.b = strconv.AppendInt(rw.b, int64(it.Stats.VisitedCells), 10)
	rw.b = append(rw.b, `,"lpCalls":`...)
	rw.b = strconv.AppendInt(rw.b, int64(it.Stats.LPCalls), 10)
	rw.b = append(rw.b, `},"lsn":`...)
	rw.b = strconv.AppendUint(rw.b, it.LSN, 10)
	rw.b = append(rw.b, '}')
	return nil
}

// result appends one family's result body. Every family but WhyNot is
// written by hand; a kSPR answer's regions are intersections of the same
// few halfspaces H(i,j), so each of its rows goes through the memo (row).
func (rw *respWriter) result(v any) error {
	switch r := v.(type) {
	case *topkBody:
		if r != nil {
			rw.b = append(rw.b, `{"options":`...)
			rw.ints(r.Options)
			rw.b = append(rw.b, '}')
			return nil
		}
	case *ksprBody:
		if r != nil {
			rw.b = append(rw.b, `{"regions":`...)
			err := rw.array(r.Regions == nil, len(r.Regions), func(i int) error {
				hs := r.Regions[i].Halfspaces
				rw.b = append(rw.b, `{"Halfspaces":`...)
				err := rw.array(hs == nil, len(hs), func(j int) error { return rw.row(&hs[j]) })
				rw.b = append(rw.b, '}')
				return err
			})
			rw.b = append(rw.b, '}')
			return err
		}
	case *utkBody:
		if r != nil {
			rw.b = append(rw.b, `{"options":`...)
			rw.ints(r.Options)
			rw.b = append(rw.b, `,"partitionTopKSets":`...)
			// ints cannot fail, so neither can the array.
			_ = rw.array(r.Partitions == nil, len(r.Partitions), func(i int) error {
				rw.ints(r.Partitions[i])
				return nil
			})
			rw.b = append(rw.b, '}')
			return nil
		}
	case *oruBody:
		if r != nil {
			rw.b = append(rw.b, `{"options":`...)
			rw.ints(r.Options)
			rw.b = append(rw.b, `,"rho":`...)
			err := rw.float(r.Rho)
			rw.b = append(rw.b, '}')
			return err
		}
	case *maxrankBody:
		if r != nil {
			rw.b = append(rw.b, `{"rank":`...)
			rw.b = strconv.AppendInt(rw.b, int64(r.Rank), 10)
			rw.b = append(rw.b, '}')
			return nil
		}
	}
	return rw.value(v)
}

// ints appends an int slice, null when nil.
func (rw *respWriter) ints(v []int) {
	// An int always formats: no element fails.
	_ = rw.array(v == nil, len(v), func(i int) error {
		rw.b = strconv.AppendInt(rw.b, int64(v[i]), 10)
		return nil
	})
}

// array appends n elements, each written by elem, as a JSON array, or null
// when isNil.
func (rw *respWriter) array(isNil bool, n int, elem func(i int) error) error {
	if isNil {
		rw.b = append(rw.b, "null"...)
		return nil
	}
	rw.b = append(rw.b, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			rw.b = append(rw.b, ',')
		}
		if err := elem(i); err != nil {
			return err
		}
	}
	rw.b = append(rw.b, ']')
	return nil
}

// row appends one halfspace, {"A":[...],"B":...}. The memo, keyed by the
// row's float bits, holds where in the body each distinct row was first
// written; a repeat copies those bytes instead of formatting its floats.
func (rw *respWriter) row(h *tlx.Halfspace) error {
	rw.rows++
	// A nil A renders null and an empty one [], so the key tells them apart.
	rw.key = strconv.AppendBool(rw.key[:0], h.A == nil)
	for _, f := range h.A {
		rw.key = binary.LittleEndian.AppendUint64(rw.key, math.Float64bits(f))
	}
	rw.key = binary.LittleEndian.AppendUint64(rw.key, math.Float64bits(h.B))
	if at, ok := rw.memo[string(rw.key)]; ok {
		rw.b = append(rw.b, rw.b[at[0]:at[1]]...)
		return nil
	}
	off := len(rw.b)
	rw.b = append(rw.b, `{"A":`...)
	err := rw.array(h.A == nil, len(h.A), func(i int) error { return rw.float(h.A[i]) })
	rw.b = append(rw.b, `,"B":`...)
	err = cmp.Or(err, rw.float(h.B)) // the first refused float, as encoding/json reports it
	rw.b = append(rw.b, '}')
	// A refused row is memoized too: the whole body is discarded.
	rw.memo[string(rw.key)] = [2]int{off, len(rw.b)}
	return err
}

// float appends f as encoding/json formats a float64: the shortest
// round-tripping decimal, 'e' form below 1e-6 and from 1e21, a one-digit
// negative exponent without its leading zero. NaN and ±Inf are the error
// encoding/json reports for them.
func (rw *respWriter) float(f float64) error {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	rw.b = strconv.AppendFloat(rw.b, f, format, -1, 64)
	if b, n := rw.b, len(rw.b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		rw.b = b[:n-1]
	}
	return nil
}
