package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	tlx "tlevelindex"
	"tlevelindex/internal/cache"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/index"
	"tlevelindex/internal/lp"
	"tlevelindex/internal/replicate"
	"tlevelindex/internal/serve"
)

// tracedRequest is one generated request kept for replay.
type tracedRequest struct {
	body []byte
	qs   []serve.QueryRequest
}

// memWriter is the in-memory http.ResponseWriter the handler is timed with.
type memWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (m *memWriter) Header() http.Header         { return m.header }
func (m *memWriter) Write(b []byte) (int, error) { return m.buf.Write(b) }
func (m *memWriter) WriteHeader(status int)      { m.status = status }

// timeHandler replays warm and then reqs into a handler's mux from this
// goroutine and returns the duration of each call for reqs and the mean
// allocations per such call, taken from the runtime's malloc count across the
// whole loop (requests and the writer are built outside it).
func timeHandler(mux http.Handler, path string, warm, reqs []tracedRequest) ([]time.Duration, float64, error) {
	build := func(rs []tracedRequest) ([]*http.Request, error) {
		hr := make([]*http.Request, len(rs))
		for i, r := range rs {
			req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(r.body))
			if err != nil {
				return nil, err
			}
			hr[i] = req
		}
		return hr, nil
	}
	mw := &memWriter{header: http.Header{}}
	hw, err := build(warm)
	if err != nil {
		return nil, 0, err
	}
	for _, req := range hw {
		mw.buf.Reset()
		mux.ServeHTTP(mw, req)
	}
	hr, err := build(reqs)
	if err != nil {
		return nil, 0, err
	}
	took := make([]time.Duration, len(reqs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, req := range hr {
		mw.buf.Reset()
		mw.status = http.StatusOK
		t0 := time.Now()
		mux.ServeHTTP(mw, req)
		took[i] = time.Since(t0)
		if mw.status != http.StatusOK {
			return nil, 0, fmt.Errorf("handler answered %d: %s", mw.status, mw.buf.Bytes())
		}
	}
	runtime.ReadMemStats(&m1)
	return took, float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs)), nil
}

func durationsIn(d []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(unit)
	}
	return out
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(max(len(v), 1))
}

// scrape reads the counters and gauges of GET /v1/metrics by name.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out, nil
}

// engineCalls replays what the handler asks of the public API and of a cache
// for each request, against ix and a cache of the handler's size fed the
// same keys, and returns per request the time in the API, the time in the
// cache, and the same API work timed on the internal index below it.
func engineCalls(w *workload, ix *tlx.Index, inner *index.Index, reqs []tracedRequest) (api, probe, below []time.Duration) {
	ctx := context.Background()
	c := cache.New(4096)
	fid := make(map[int]int32, len(inner.OrigIDs))
	for f, o := range inner.OrigIDs {
		fid[o] = int32(f)
	}
	api = make([]time.Duration, len(reqs))
	probe = make([]time.Duration, len(reqs))
	below = make([]time.Duration, len(reqs))
	timed := func(into *time.Duration, f func()) {
		t0 := time.Now()
		f()
		*into += time.Since(t0)
	}
	for i, r := range reqs {
		if w.perReq > 1 {
			byK := map[int][]int{}
			for j, q := range r.qs {
				byK[q.K] = append(byK[q.K], j)
			}
			for k, idxs := range byK {
				ws := make([][]float64, len(idxs))
				xs := make([][]float64, len(idxs))
				for j, at := range idxs {
					ws[j] = r.qs[at].W
					xs[j] = r.qs[at].W[:w.d-1]
				}
				var items []tlx.TopKBatchItem
				timed(&api[i], func() { items, _ = ix.TopKBatchContext(ctx, ws, k) })
				timed(&below[i], func() { inner.TopKBatchCtx(ctx, xs, k, true) })
				keys := make([]cache.Key, len(items))
				vals := make([]any, len(items))
				oks := make([]bool, len(items))
				for j := range items {
					keys[j] = cache.Key{Family: "topk", Cell: items[j].Key.Sum64(), K: k}
				}
				timed(&probe[i], func() {
					c.GetMulti(keys, 0, vals, oks)
					for j := range items {
						if !oks[j] {
							c.Put(keys[j], 0, &items[j])
						}
					}
				})
			}
			continue
		}
		q := &r.qs[0]
		if q.Family == "topk" {
			var key cache.Key
			timed(&api[i], func() {
				ck, _, _ := ix.LocateDepth(q.W, q.K)
				key = cache.Key{Family: "topk", Cell: ck.Sum64(), K: q.K}
			})
			timed(&below[i], func() { inner.Locate(q.W[:w.d-1], q.K) })
			hit := false
			timed(&probe[i], func() { _, hit = c.Get(key, 0) })
			if !hit {
				var res *tlx.TopKResult
				timed(&api[i], func() { _, _, res, _ = ix.LocateTopK(ctx, q.W, q.K) })
				timed(&below[i], func() { inner.LocateTopK(ctx, q.W[:w.d-1], q.K, nil) })
				timed(&probe[i], func() { c.Put(key, 0, res) })
			}
			continue
		}
		key := cache.Key{Family: q.Family, K: q.K, Params: string(r.body)}
		hit := false
		timed(&probe[i], func() { _, hit = c.Get(key, 0) })
		if hit {
			continue
		}
		var res any
		switch q.Family {
		case "utk":
			timed(&api[i], func() { res, _ = ix.UTKContext(ctx, q.K, q.Lo, q.Hi) })
			timed(&below[i], func() { inner.UTKCtx(ctx, q.K, geom.NewBox(q.Lo, q.Hi)) })
		case "oru":
			timed(&api[i], func() { res, _ = ix.ORUContext(ctx, q.K, q.W, q.M) })
			timed(&below[i], func() { inner.ORUCtx(ctx, q.K, q.W[:w.d-1], q.M) })
		case "kspr":
			timed(&api[i], func() { res, _ = ix.KSPRContext(ctx, q.K, *q.Focal) })
			if f, ok := fid[*q.Focal]; ok {
				timed(&below[i], func() { inner.KSPRCtx(ctx, q.K, f) })
			}
		}
		timed(&probe[i], func() { c.Put(key, 0, res) })
	}
	return api, probe, below
}

// cacheCosts times the answer cache's operations on a cache of the handler's
// size holding the workload's own top-k keys.
func cacheCosts(res *result, ix *tlx.Index, reqs []tracedRequest) {
	var keys []cache.Key
	for _, r := range reqs {
		for _, q := range r.qs {
			if q.Family == "topk" && len(keys) < 4096 {
				ck, _, _ := ix.LocateDepth(q.W, q.K)
				keys = append(keys, cache.Key{Family: "topk", Cell: ck.Sum64(), K: q.K})
			}
		}
	}
	if len(keys) == 0 { // analytic: parameter keys
		for i := range reqs {
			keys = append(keys, cache.Key{Family: "utk", K: 1, Params: string(reqs[i].body)})
		}
	}
	c := cache.New(4096)
	per := func(f func()) float64 {
		const rounds = 16
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			f()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(keys))
	}
	val := new(int)
	res.set("cache.get_miss_ns", per(func() {
		for _, k := range keys {
			c.Get(k, 0)
		}
	}), len(keys))
	res.set("cache.put_ns", per(func() {
		for _, k := range keys {
			c.Put(k, 0, val)
		}
	}), len(keys))
	res.set("cache.get_hit_ns", per(func() {
		for _, k := range keys {
			c.Get(k, 0)
		}
	}), len(keys))
	vals := make([]any, 64)
	oks := make([]bool, 64)
	res.set("cache.getmulti_item_ns", per(func() {
		for at := 0; at+64 <= len(keys); at += 64 {
			c.GetMulti(keys[at:at+64], 0, vals, oks)
		}
	}), len(keys))
}

// geometryCosts times one feasibility check and one bare LP solve per region
// of the kSPR answers of a few focal options.
func geometryCosts(res *result, ix *tlx.Index, focals []int, tau int) {
	var feasible, solve []float64
	for _, f := range focals[:min(len(focals), 32)] {
		ans, err := ix.KSPRContext(context.Background(), tau-1, f)
		if err != nil {
			continue
		}
		for _, reg := range ans.Regions {
			t0 := time.Now()
			reg.Feasible()
			feasible = append(feasible, float64(time.Since(t0).Nanoseconds()))
			p := lp.Problem{C: make([]float64, len(reg.Halfspaces[0].A))}
			for _, h := range reg.Halfspaces {
				p.A = append(p.A, h.A)
				p.B = append(p.B, h.B)
			}
			t0 = time.Now()
			lp.Solve(p)
			solve = append(solve, float64(time.Since(t0).Nanoseconds()))
		}
	}
	res.set("geom.region_feasible_ns", median(feasible), len(feasible))
	res.set("lp.solve_ns", median(solve), len(solve))
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

const stateReps = 5

func medianOf(n int, f func() (time.Duration, error)) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	return median(ms), nil
}

// stateCosts times the operations that move the whole index: serialization
// and the two loaders, a snapshot, recovery, and a follower's bootstrap.
func stateCosts(res *result, st *stack, userBytes int) error {
	ix := st.st.Index()
	var buf bytes.Buffer
	v, err := medianOf(stateReps, func() (time.Duration, error) {
		buf.Reset()
		t0 := time.Now()
		_, err := ix.WriteTo(&buf)
		return time.Since(t0), err
	})
	if err != nil {
		return fmt.Errorf("serialize index: %w", err)
	}
	res.set("api.write_ms", v, stateReps)
	if v, err = medianOf(stateReps, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := tlx.ReadIndex(bytes.NewReader(buf.Bytes()))
		return time.Since(t0), err
	}); err != nil {
		return fmt.Errorf("load index onto the heap: %w", err)
	}
	res.set("api.read_heap_ms", v, stateReps)
	file := filepath.Join(st.dir, "bench-index.idx")
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if v, err = medianOf(stateReps, func() (time.Duration, error) {
		t0 := time.Now()
		m, err := tlx.OpenIndexFile(file)
		took := time.Since(t0)
		if err == nil {
			err = m.Close()
		}
		return took, err
	}); err != nil {
		return fmt.Errorf("map index file: %w", err)
	}
	os.Remove(file)
	res.set("api.open_mmap_ms", v, stateReps)

	// A snapshot is only taken of a store that moved: log one record the
	// index already holds (a duplicate resolves to its id, mutating nothing).
	dup := st.data[ix.LevelOptions(1)[0]]
	if _, err := st.st.Insert(dup); err != nil {
		return fmt.Errorf("log a duplicate: %w", err)
	}
	info, err := st.st.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	res.set("store.snapshot_ms", info.TookMs, 1)
	res.set("store.snapshot_bytes", float64(info.Bytes), 1)
	res.set("store.disk_bytes_per_user_byte", float64(dirBytes(st.dir))/float64(userBytes), 1)

	fdir, err := os.MkdirTemp("", "tlxbench-follower-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(fdir)
	t0 := time.Now()
	f, err := replicate.Start(replicate.Options{PrimaryURL: "http://" + st.addr, Dir: fdir})
	if err != nil {
		return fmt.Errorf("bootstrap follower: %w", err)
	}
	took := time.Since(t0)
	if f.AppliedLSN() != st.st.AppliedLSN() {
		err = fmt.Errorf("follower at LSN %d, primary at %d", f.AppliedLSN(), st.st.AppliedLSN())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.set("replicate.bootstrap_ms", float64(took)/float64(time.Millisecond), 1)
	res.set("replicate.shipped_bytes", float64(dirBytes(fdir)), 1)

	if v, err = medianOf(stateReps, st.reopen); err != nil {
		return err
	}
	res.set("store.reopen_ms", v, stateReps)
	return nil
}

// insertLayers applies the writer's schedule three times, each on a fresh
// copy of the index: over loopback into a served store, straight into a
// store, and straight into an in-memory index. The differences are the
// layers' own costs.
func insertLayers(w *workload, cfg config, res *result, tr *tracer) error {
	if w.rounds == 0 {
		return nil
	}
	base, err := setUp(w, cfg.n)
	if err != nil {
		return err
	}
	defer base.close()
	batches := insertBatches(w, base.data, base.rankHolders(w.tau), cfg.seed)
	records := float64(len(batches) * w.batch)

	before, err := scrape(base.addr)
	if err != nil {
		return err
	}
	c, err := dial(base.addr, "/v1/insert/batch")
	if err != nil {
		return err
	}
	defer c.close()
	served := make([]time.Duration, len(batches))
	for i, b := range batches {
		body := appendInsertBatch(nil, b)
		t0 := time.Now()
		status, reply, err := c.post(body)
		served[i] = time.Since(t0)
		if _, err := decodeAcks(len(b), status, reply, err); err != nil {
			return err
		}
	}
	after, err := scrape(base.addr)
	if err != nil {
		return err
	}

	direct, err := setUp(w, cfg.n)
	if err != nil {
		return err
	}
	defer direct.close()
	stored := make([]time.Duration, len(batches))
	for i, b := range batches {
		t0 := time.Now()
		if _, _, err := direct.st.InsertBatchLSN(b); err != nil {
			return fmt.Errorf("store insert: %w", err)
		}
		stored[i] = time.Since(t0)
	}

	ix, err := tlx.Build(base.data, w.tau)
	if err != nil {
		return err
	}
	applied := make([]time.Duration, len(batches))
	var thaw, finalize []float64
	accepted := 0
	for i, b := range batches {
		t0 := time.Now()
		_, bs := ix.InsertBatch(b)
		applied[i] = time.Since(t0)
		accepted += bs.Accepted
		thaw = append(thaw, float64(bs.ThawNS)/1e6)
		finalize = append(finalize, float64(bs.FinalizeNS)/1e6)
	}
	for i := range batches {
		root := tr.add(-1, cfg.traced+i, "serve.insert_batch", served[i])
		mid := tr.add(root, cfg.traced+i, "store.insert_batch", stored[i])
		tr.add(mid, cfg.traced+i, "api.insert_batch", applied[i])
	}
	sum := func(d []time.Duration) float64 {
		total := time.Duration(0)
		for _, v := range d {
			total += v
		}
		return float64(total) / float64(time.Millisecond)
	}
	set := func(name string, v float64) { res.set(name, v, len(batches)) }
	set("serve.insert_batch_ms", median(durationsIn(served, time.Millisecond)))
	set("store.insert_batch_ms_rec", sum(stored)/records)
	walSeconds := func(m map[string]float64) float64 {
		return m["tlx_wal_append_seconds_sum"] + m["tlx_wal_fsync_seconds_sum"]
	}
	set("store.wal_ms_rec", 1e3*(walSeconds(after)-walSeconds(before))/records)
	set("store.fsyncs_per_rec", (after["tlx_wal_fsyncs_total"]-before["tlx_wal_fsyncs_total"])/records)
	set("store.wal_bytes_per_rec", (after["tlx_wal_append_bytes_total"]-before["tlx_wal_append_bytes_total"])/records)
	set("api.insert_batch_ms_rec", sum(applied)/records)
	set("api.insert_thaw_ms", median(thaw))
	set("api.insert_finalize_ms", median(finalize))
	set("api.insert_accept_ratio", float64(accepted)/records)
	return nil
}

// runTraced is the traced pass: the first cfg.traced requests of the
// workload's first stream (and, for ingest_mixed, the writer's whole
// schedule) replayed from one goroutine against one layer at a time, with a
// span per call. End-to-end numbers never come from here.
func runTraced(w *workload, cfg config, outDir string) (*result, error) {
	res := newResult(w, cfg.seed, true)
	st, err := setUp(w, cfg.n)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ix := st.st.Index()
	focals := st.focals(w.tau)
	// The requests: first the ones that bring the caches to the state the
	// timed windows see them in, then the traced ones.
	s := newStream(w, cfg.seed, 0, focals)
	warmN := w.traceWarm * cfg.traced / fullTraced / w.perReq
	all := make([]tracedRequest, warmN+cfg.traced)
	for i := range all {
		body, qs := s.next()
		all[i] = tracedRequest{body: bytes.Clone(body), qs: make([]serve.QueryRequest, len(qs))}
		for j, q := range qs {
			q.W = append([]float64(nil), q.W...)
			all[i].qs[j] = q
		}
	}
	warm, reqs := all[:warmN], all[warmN:]
	ops := float64(len(reqs) * w.perReq)
	post := func(c *conn, r tracedRequest) ([]byte, error) {
		status, reply, err := c.post(r.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, reply)
		}
		return reply, err
	}

	// Untraced reference on the stack's own handler: the same requests,
	// nothing but two clock readings around each.
	pc, err := dial(st.addr, w.path)
	if err != nil {
		return nil, err
	}
	defer pc.close()
	plain := make([]time.Duration, len(reqs))
	for i, r := range all {
		t0 := time.Now()
		if _, err := post(pc, r); err != nil {
			return nil, fmt.Errorf("untraced reference: %w", err)
		}
		if i >= warmN {
			plain[i-warmN] = time.Since(t0)
		}
	}

	// Layer 1, net/http: loopback round trips on one connection into a twin
	// handler behind its own listener, decoding every reply for its cached
	// flag and traversal counts. The twin is the newest handler, which is the
	// one whose cache /v1/metrics reports.
	addr, stop, err := listenAndServe(serve.NewStoreHandler(st.st, serve.Config{}).Mux())
	if err != nil {
		return nil, err
	}
	defer stop()
	c, err := dial(addr, w.path)
	if err != nil {
		return nil, err
	}
	defer c.close()
	for _, r := range warm {
		if _, err := post(c, r); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	before, err := scrape(addr)
	if err != nil {
		return nil, err
	}
	round := make([]time.Duration, len(reqs))
	cached, visited, lps := 0, 0, 0
	for i, r := range reqs {
		t0 := time.Now()
		reply, err := post(c, r)
		round[i] = time.Since(t0)
		res.Attempted += len(r.qs)
		var items []envelope
		if err == nil {
			items, err = decodeReply(len(r.qs), reply)
		}
		if err != nil {
			return nil, fmt.Errorf("traced request %d: %w", i, err)
		}
		for _, it := range items {
			if it.Error != "" {
				res.fail(fmt.Errorf("traced request %d: %s", i, it.Error))
			}
			if it.Cached {
				cached++
			}
			visited += it.Stats.VisitedCells
			lps += it.Stats.LPCalls
		}
	}
	after, err := scrape(addr)
	if err != nil {
		return nil, err
	}

	// Layer 2, serve: the same requests into a second handler over the same
	// store, and into a third without the flight recorder.
	handled, allocs, err := timeHandler(serve.NewStoreHandler(st.st, serve.Config{}).Mux(), w.path, warm, reqs)
	if err != nil {
		return nil, err
	}
	bare, _, err := timeHandler(serve.NewStoreHandler(st.st, serve.Config{TraceBuffer: -1}).Mux(), w.path, warm, reqs)
	if err != nil {
		return nil, err
	}

	// Layers 3 and 4, the public API with a cache beside it, and the
	// internal index under it (built from the same data, so the same index).
	inner, err := index.Build(st.data, index.Config{Tau: w.tau})
	if err != nil {
		return nil, err
	}
	api, probe, below := engineCalls(w, ix, inner, all)
	api, probe, below = api[warmN:], probe[warmN:], below[warmN:]

	tr := &tracer{}
	for i := range reqs {
		root := tr.add(-1, i, "nethttp.roundtrip", round[i])
		h := tr.add(root, i, "serve.handler", handled[i])
		tr.add(h, i, "api.query", api[i])
		tr.add(h, i, "cache.probe", probe[i])
	}
	nested := nestedShare(tr.spans)

	us := func(d []time.Duration) []float64 { return durationsIn(d, time.Microsecond) }
	put := func(name string, v float64) { res.set(name, v, len(reqs)) }
	put("nethttp.roundtrip_us", median(us(round)))
	put("nethttp.self_us", median(selfByName(tr.spans, "nethttp.roundtrip"))/1e3)
	put("serve.handler_us", median(us(handled)))
	put("serve.self_us", median(selfByName(tr.spans, "serve.handler"))/1e3)
	put("serve.handler_allocs", allocs)
	put("cache.hit_ratio", float64(cached)/ops)
	put("cache.evictions", after["tlx_cache_evictions_total"]-before["tlx_cache_evictions_total"])
	put("cache.probe_us", median(us(probe)))
	put("api.query_us", median(us(api)))
	put("api.self_us", median(us(api))-median(us(below)))
	put("index.query_us", median(us(below)))
	put("index.visited_cells_per_op", float64(visited)/ops)
	put("index.lp_calls_per_op", float64(lps)/ops)
	put("obs.sampled_overhead_ns", 1e3*(mean(us(handled))-mean(us(bare))))
	put("bench.trace_overhead_pct", 100*(median(us(round))-median(us(plain)))/median(us(plain)))
	put("bench.spans_nested_pct", 100*nested)
	res.set("index.build_ms", float64(st.buildTime)/float64(time.Millisecond), 1)
	res.set("index.build_lp_calls", float64(st.buildStats.LPCalls), 1)
	res.set("index.cells", float64(ix.NumCells()), 1)
	res.set("index.size_bytes", float64(ix.SizeBytes()), 1)

	cacheCosts(res, ix, reqs)
	geometryCosts(res, ix, focals, w.tau)
	if err := insertLayers(w, cfg, res, tr); err != nil {
		return nil, err
	}
	if err := stateCosts(res, st, 8*w.d*len(st.data)); err != nil {
		return nil, err
	}
	if err := writeJSON(filepath.Join(outDir, "trace-"+w.name+".json"), struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, cfg.seed, tr.spans}); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}
