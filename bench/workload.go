package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"

	"tlevelindex/datagen"
	"tlevelindex/internal/serve"
)

// The catalogue is the same on every run: index shape (cell count, depth of
// the chains) decides what a query costs, and a dataset drawn from -seed
// moved every latency by more between seeds than the bounds allow between
// commits. The seed draws the traffic.
const (
	datasetSeed = 1
	// arrivalSeed fixes the options ingest_mixed gets accepted: one accepted
	// insert costs 10-100 ms depending on where it lands and how many came
	// before it, and 60 of them per run do not average that out.
	arrivalSeed = 2
	prefPool    = 1 << 16
)

// workload is one traffic mix. The server never sees the name: it receives
// the bytes the streams below render.
type workload struct {
	name   string
	why    string
	d, tau int
	path   string
	perReq int              // operations per request
	prefs  datagen.PrefDist // pool the streams cycle through
	// fill draws query i of a stream.
	fill func(s *stream, i int, q *serve.QueryRequest)
	// checks is the number of operations re-issued outside the timed window
	// and held to the oracles; fewer where an oracle takes milliseconds.
	checks int
	// ingest_mixed only: a run is rounds rounds on fresh stores; in each the
	// reader sends every readEvery and the writer spreads batches insert
	// batches of batch options evenly over the round's window. accepted
	// options of a batch enter the index, the rest the prefilter rejects.
	rounds, batches, batch, accepted int
	readEvery                        time.Duration
	// traceWarm is how many operations the traced pass sends before the
	// fullTraced requests it traces, so that it meets the caches as full as
	// the timed windows do.
	traceWarm int
}

// fullTraced is the number of read requests a full-size traced pass traces.
const fullTraced = 2000

var workloads = []*workload{
	{
		name: "point_hot",
		why:  "cached top-k over one keep-alive connection per client: net/http and serve decode/dispatch/encode are the whole cost, the engine none",
		d:    3, tau: 9, path: "/v1/query", perReq: 1, prefs: datagen.PrefClustered,
		fill: fillTopK, checks: 500, traceWarm: 60000,
	},
	{
		name: "batch_spread",
		why:  "64 uniform top-k per envelope, more cell chains than cache entries: batch dispatch, cache GetMulti/Put/eviction and the shared walk, HTTP amortised 64x",
		d:    3, tau: 9, path: "/v1/query/batch", perReq: 64, prefs: datagen.PrefUniform,
		fill: fillTopK, checks: 512, traceWarm: 64000,
	},
	{
		name: "analytic",
		why:  "2 UTK : 1 ORU : 1 kSPR with parameters that never repeat: traversal, geom and lp bound, serve overhead a few percent",
		d:    3, tau: 9, path: "/v1/query", perReq: 1, prefs: datagen.PrefUniform,
		fill: fillAnalytic, checks: 80,
	},
	{
		name: "ingest_mixed",
		why:  "durable insert batches beside cached reads on one index, lock and cache: a read gain bought with write cost, or the reverse, shows here",
		d:    2, tau: 6, path: "/v1/query", perReq: 1, prefs: datagen.PrefClustered,
		fill: func(s *stream, _ int, q *serve.QueryRequest) {
			*q = serve.QueryRequest{Family: "topk", W: s.pref(), K: s.w.tau}
		},
		rounds: 10, batches: 9, batch: 16, accepted: 2, readEvery: 250 * time.Microsecond,
		checks: 500, traceWarm: 2000,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// subSeed derives the seed of one generator from the run's seed. Salts
// start at 2 so no stream shares a source with the dataset or the arrivals.
func subSeed(seed int64, salt int) int64 { return seed*1_000_003 + int64(salt) + 2 }

// stream is one connection's request generator: request i is a function of
// (seed, connection, i) alone.
type stream struct {
	w      *workload
	rng    *rand.Rand
	prefs  [][]float64
	focals []int // options that hold some rank <= tau (kSPR focals)
	n      int   // requests drawn so far
	qs     []serve.QueryRequest
	body   []byte
}

func newStream(w *workload, seed int64, conn int, focals []int) *stream {
	return &stream{
		w:      w,
		rng:    rand.New(rand.NewSource(subSeed(seed, 2*conn))),
		prefs:  datagen.Preferences(w.prefs, prefPool, w.d, subSeed(seed, 2*conn+1)),
		focals: focals,
		qs:     make([]serve.QueryRequest, w.perReq),
	}
}

func (s *stream) pref() []float64 { return s.prefs[s.rng.Intn(len(s.prefs))] }

// next renders the stream's next request. Both results are reused by the
// following call.
func (s *stream) next() ([]byte, []serve.QueryRequest) {
	for j := range s.qs {
		s.w.fill(s, s.n*s.w.perReq+j, &s.qs[j])
	}
	s.n++
	if s.w.perReq == 1 {
		s.body = appendQuery(s.body[:0], &s.qs[0])
		return s.body, s.qs
	}
	s.body = append(s.body[:0], `{"queries":[`...)
	for j := range s.qs {
		if j > 0 {
			s.body = append(s.body, ',')
		}
		s.body = appendQuery(s.body, &s.qs[j])
	}
	s.body = append(s.body, "]}"...)
	return s.body, s.qs
}

func fillTopK(s *stream, _ int, q *serve.QueryRequest) {
	*q = serve.QueryRequest{Family: "topk", W: s.pref(), K: 1 + s.rng.Intn(s.w.tau)}
}

// utkSide is the edge of a UTK box in reduced coordinates: about 3% of the
// preference simplex's extent.
const utkSide = 0.03

func fillAnalytic(s *stream, i int, q *serve.QueryRequest) {
	k := 1 + s.rng.Intn(s.w.tau-1)
	// Fresh simplex points, not the pool: a repeated parameter would be a
	// cache hit, and this workload exists to miss.
	w := make([]float64, s.w.d)
	sum := 0.0
	for j := range w {
		w[j] = s.rng.ExpFloat64()
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	switch i % 4 {
	case 0, 1:
		lo := make([]float64, s.w.d-1)
		hi := make([]float64, s.w.d-1)
		for j := range lo {
			lo[j] = max(w[j]-utkSide/2, 0)
			hi[j] = lo[j] + utkSide
		}
		*q = serve.QueryRequest{Family: "utk", Lo: lo, Hi: hi, K: k}
	case 2:
		*q = serve.QueryRequest{Family: "oru", W: w, K: k, M: s.w.tau + 4}
	default:
		f := s.focals[s.rng.Intn(len(s.focals))]
		*q = serve.QueryRequest{Family: "kspr", Focal: &f, K: k}
	}
}

// appendQuery renders q as the JSON object POST /v1/query decodes. Floats
// use the shortest form that round-trips, so the server sees the exact
// vector the oracles are given.
func appendQuery(dst []byte, q *serve.QueryRequest) []byte {
	dst = append(dst, `{"family":"`...)
	dst = append(dst, q.Family...)
	dst = append(dst, '"')
	vec := func(name string, v []float64) {
		if v == nil {
			return
		}
		dst = append(dst, `,"`...)
		dst = append(dst, name...)
		dst = append(dst, `":`...)
		dst = appendVec(dst, v)
	}
	vec("w", q.W)
	vec("lo", q.Lo)
	vec("hi", q.Hi)
	dst = append(dst, `,"k":`...)
	dst = strconv.AppendInt(dst, int64(q.K), 10)
	if q.Focal != nil {
		dst = append(dst, `,"focal":`...)
		dst = strconv.AppendInt(dst, int64(*q.Focal), 10)
	}
	if q.M != 0 {
		dst = append(dst, `,"m":`...)
		dst = strconv.AppendInt(dst, int64(q.M), 10)
	}
	return append(dst, '}')
}

func appendVec(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, f := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return append(dst, ']')
}

// dominates reports whether a is at least b everywhere and better somewhere.
func dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// skyband returns the options of data with fewer than tau dominators. Any
// option with tau or more dominators has tau of them inside the band, so
// counting against the band decides membership for later arrivals too.
func skyband(data [][]float64, tau int) [][]float64 {
	order := make([]int, len(data))
	sums := make([]float64, len(data))
	for i, p := range data {
		order[i] = i
		for _, v := range p {
			sums[i] += v
		}
	}
	// A dominator has the larger attribute sum, so it comes first.
	sort.Slice(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })
	var band [][]float64
	for _, i := range order {
		if dominators(band, data[i], tau) < tau {
			band = append(band, data[i])
		}
	}
	return band
}

// dominators counts the members of band that dominate p, stopping at limit.
func dominators(band [][]float64, p []float64, limit int) int {
	n := 0
	for _, q := range band {
		if dominates(q, p) {
			if n++; n >= limit {
				break
			}
		}
	}
	return n
}

// insertBatches draws the writer's schedule for one round: w.batches batches
// of w.batch options, w.accepted of which the index will accept (2 or 3
// current options dominate them, so they land in the deeper levels) while the
// rest are base-distribution draws the τ-skyband prefilter rejects: tau
// options of certain, all known to be in the index's pool, dominate each. The accepted options
// come from arrivalSeed; the seed draws the rejected ones and the places the
// accepted ones take in their batch.
func insertBatches(w *workload, base, certain [][]float64, seed int64) [][][]float64 {
	band := skyband(base, w.tau)
	arrive := rand.New(rand.NewSource(arrivalSeed))
	rng := rand.New(rand.NewSource(subSeed(seed, 1<<20)))
	draw := func(r *rand.Rand) []float64 {
		p := make([]float64, w.d)
		for i := range p {
			p[i] = r.Float64()
		}
		return p
	}
	out := make([][][]float64, w.batches)
	for b := range out {
		// The accepted options keep their arrival order whatever the seed:
		// it decides only which places of the batch they take.
		place := rng.Perm(w.batch)[:w.accepted]
		sort.Ints(place)
		batch := make([][]float64, w.batch)
		for _, at := range place {
			for batch[at] == nil {
				p := draw(arrive)
				if c := dominators(band, p, w.tau); c == 2 || c == 3 {
					batch[at] = p
					band = append(band, p)
				}
			}
		}
		for at := range batch {
			for batch[at] == nil {
				if p := draw(rng); dominators(certain, p, w.tau) >= w.tau {
					batch[at] = p
				}
			}
		}
		out[b] = batch
	}
	return out
}

func appendInsertBatch(dst []byte, opts [][]float64) []byte {
	dst = append(dst, `{"options":[`...)
	for i, o := range opts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendVec(dst, o)
	}
	return append(dst, "]}"...)
}
