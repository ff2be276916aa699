package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"

	tlx "tlevelindex"
	"tlevelindex/baseline"
	"tlevelindex/internal/geom"
	"tlevelindex/internal/serve"
)

// envelope is the part of a /v1/query reply (or of one batch item) the
// checks and the traced pass read.
type envelope struct {
	Result struct {
		Options []int        `json:"options"`
		Rho     float64      `json:"rho"`
		Regions []tlx.Region `json:"regions"`
	} `json:"result"`
	Stats struct {
		VisitedCells int `json:"visitedCells"`
		LPCalls      int `json:"lpCalls"`
	} `json:"stats"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

// decodeReply returns one envelope per operation of the request.
func decodeReply(perReq int, body []byte) ([]envelope, error) {
	if perReq == 1 {
		var e envelope
		err := json.Unmarshal(body, &e)
		return []envelope{e}, err
	}
	var b struct {
		Results []envelope `json:"results"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if len(b.Results) != perReq {
		return nil, fmt.Errorf("batch reply has %d items, want %d", len(b.Results), perReq)
	}
	return b.Results, nil
}

// oracle checks answers against the reference implementations in baseline/.
type oracle struct {
	data [][]float64
	brs  *baseline.BRS
	rng  *rand.Rand
}

func newOracle(data [][]float64, seed int64) *oracle {
	return &oracle{data: data, brs: baseline.NewBRS(data), rng: rand.New(rand.NewSource(seed))}
}

// oracleProbes is how many preference points an ORU or kSPR answer is
// probed at.
const oracleProbes = 64

// check returns nil when e answers q correctly.
func (o *oracle) check(q *serve.QueryRequest, e *envelope) error {
	if e.Error != "" {
		return fmt.Errorf("%s: server error %q", q.Family, e.Error)
	}
	switch q.Family {
	case "topk":
		return o.sameRanking(e.Result.Options, q.W, q.K)
	case "utk":
		want, _ := baseline.JAA(o.brs, geom.NewBox(q.Lo, q.Hi), q.K)
		if !slices.Equal(e.Result.Options, want.Options) {
			return fmt.Errorf("utk k=%d lo=%v: options %v, JAA %v", q.K, q.Lo, e.Result.Options, want.Options)
		}
	case "oru":
		return o.checkORU(q, e)
	case "kspr":
		// baseline.LPCTA needs up to a second per query at n=8000; the
		// regions are probed against brute-force ranks instead: a point is
		// covered exactly when the focal option ranks within k there.
		for i := 0; i < oracleProbes; i++ {
			x := o.simplexPoint(len(o.data[0]))
			in := false
			for _, r := range e.Result.Regions {
				if r.Contains(x) {
					in = true
					break
				}
			}
			if rank := baseline.BruteRank(o.data, *q.Focal, x); in != (rank <= q.K) {
				return fmt.Errorf("kspr k=%d focal=%d: covered=%v at %v where the option ranks %d", q.K, *q.Focal, in, x, rank)
			}
		}
	default:
		return fmt.Errorf("no oracle for family %q", q.Family)
	}
	return nil
}

// sameRanking compares a ranked answer with the brute-force ranking at w,
// letting options with equal scores swap places.
func (o *oracle) sameRanking(got []int, w []float64, k int) error {
	x := w[:len(w)-1]
	want := baseline.BruteTopK(o.data, x, k)
	if len(got) != len(want) {
		return fmt.Errorf("topk k=%d w=%v: %d options, want %d", k, w, len(got), len(want))
	}
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		if got[i] < 0 || got[i] >= len(o.data) ||
			math.Abs(geom.Score(o.data[got[i]], x)-geom.Score(o.data[want[i]], x)) > 1e-12 {
			return fmt.Errorf("topk k=%d w=%v: rank %d is %d, brute force says %d", k, w, i+1, got[i], want[i])
		}
	}
	return nil
}

// checkORU holds an ORU answer to what brute force can decide at n=8000
// (baseline.ORU takes 3-18 s per query there): the options nearest the
// query weight are its top-k, and nothing outside the reported set ranks
// top-k anywhere strictly inside the reported radius.
func (o *oracle) checkORU(q *serve.QueryRequest, e *envelope) error {
	opts := e.Result.Options
	if len(opts) < q.K || len(opts) > q.M {
		return fmt.Errorf("oru k=%d m=%d: %d options", q.K, q.M, len(opts))
	}
	x0 := q.W[:len(q.W)-1]
	inside := func(x []float64) error {
		for _, id := range baseline.BruteTopK(o.data, x, q.K) {
			if !slices.Contains(opts, id) {
				return fmt.Errorf("oru k=%d m=%d w=%v rho=%v: option %d ranks top-k at %v, inside the radius, but is not reported",
					q.K, q.M, q.W, e.Result.Rho, id, x)
			}
		}
		return nil
	}
	if err := inside(x0); err != nil {
		return err
	}
	for i := 0; i < oracleProbes; i++ {
		// A point within 0.99·rho of the query weight, kept if on the simplex.
		x := make([]float64, len(x0))
		norm, sum := 0.0, 0.0
		for j := range x {
			x[j] = o.rng.NormFloat64()
			norm += x[j] * x[j]
		}
		r := 0.99 * e.Result.Rho * math.Pow(o.rng.Float64(), 1/float64(len(x)))
		ok := true
		for j := range x {
			x[j] = x0[j] + r*x[j]/math.Sqrt(norm)
			sum += x[j]
			ok = ok && x[j] >= 0
		}
		if !ok || sum > 1 {
			continue
		}
		if err := inside(x); err != nil {
			return err
		}
	}
	return nil
}

// simplexPoint draws a reduced preference point uniformly from the simplex.
func (o *oracle) simplexPoint(d int) []float64 {
	w := make([]float64, d)
	sum := 0.0
	for j := range w {
		w[j] = o.rng.ExpFloat64()
		sum += w[j]
	}
	for j := range w {
		w[j] /= sum
	}
	return w[:d-1]
}

// checkSample sends n fresh requests of the stream over c and returns how
// many operations were checked and the errors of those that were wrong.
func checkSample(c *conn, s *stream, o *oracle, n int) (int, []error) {
	var errs []error
	ops := 0
	for i := 0; i < n; i++ {
		body, qs := s.next()
		ops += len(qs)
		status, reply, err := c.post(body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, reply)
		}
		var items []envelope
		if err == nil {
			items, err = decodeReply(len(qs), reply)
		}
		if err != nil {
			// Every operation of the request is lost with it.
			for range qs {
				errs = append(errs, err)
			}
			continue
		}
		for j := range qs {
			if err := o.check(&qs[j], &items[j]); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return ops, errs
}
