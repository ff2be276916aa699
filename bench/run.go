package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// config sizes one run.
type config struct {
	seed          int64
	n             int // options in the dataset
	clients       int
	warm, measure time.Duration
	setups        int // set-ups timed for setup_s; the last one is used
	checkDiv      int // a workload's oracle checks are divided by this
	traced        int // read requests in the traced pass
}

func fullConfig(seed int64, seconds, clients int) config {
	return config{seed: seed, n: 8000, clients: clients,
		warm: 2 * time.Second, measure: time.Duration(seconds) * time.Second,
		setups: 3, checkDiv: 1, traced: fullTraced}
}

// quickConfig is the size the tests run: every code path, no meaningful
// numbers.
func quickConfig(seed int64, clients int) config {
	return config{seed: seed, n: 1000, clients: clients,
		warm: 200 * time.Millisecond, measure: time.Second,
		setups: 1, checkDiv: 8, traced: 200}
}

// parts collects, per slice of a window (or per round of ingest_mixed), one
// value of each end-to-end metric; the run reports their medians, so one
// disturbed second moves nothing.
type parts struct {
	rate, p50, p99 []float64
	samples        int
	lowest         float64 // lowest percentile the minBeyond rule left lat_p99_us with
}

func (p *parts) add(rate float64, l *latencies) {
	p.rate = append(p.rate, rate)
	p.samples += len(l.ns)
	v, _ := l.at(0.5, 1e3)
	p.p50 = append(p.p50, v)
	v, used := l.at(0.99, 1e3)
	p.p99 = append(p.p99, v)
	if p.lowest == 0 || used < p.lowest {
		p.lowest = used
	}
}

func (p *parts) report(res *result) {
	res.set("ops_per_s", median(p.rate), len(p.rate))
	res.set("lat_p50_us", median(p.p50), p.samples)
	m := metric{Value: median(p.p99), Unit: units["lat_p99_us"], Samples: p.samples, Percentile: 100 * p.lowest}
	res.Metrics["lat_p99_us"] = m
}

// runTimed measures the end-to-end metrics of one workload with tracing off.
func runTimed(w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg.seed, false)
	var err error
	if w.rounds > 0 {
		err = timeIngest(w, cfg, res)
	} else {
		err = timeReads(w, cfg, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// timeReads sets the stack up cfg.setups times, runs the closed-loop window
// on the last one and then checks a fresh sample of the workload's requests
// against the oracles, outside the timed window.
func timeReads(w *workload, cfg config, res *result) error {
	var (
		st      *stack
		setupsS []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = setUp(w, cfg.n); err != nil {
			return err
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
	}
	defer st.close()
	res.set("setup_s", median(setupsS), len(setupsS))

	focals := st.focals(w.tau)
	streams := make([]*stream, cfg.clients)
	for i := range streams {
		streams[i] = newStream(w, cfg.seed, i, focals)
	}
	win, err := closedLoop(st.addr, streams, cfg.warm, cfg.measure)
	if err != nil {
		return err
	}
	res.Failed += win.failed
	if win.err != nil {
		res.note("FAILED: %v", win.err)
	}
	var p parts
	for i := range win.lat {
		res.Attempted += win.ops[i]
		p.add(float64(win.ops[i])*nSlices/cfg.measure.Seconds(), &win.lat[i])
	}
	p.report(res)

	c, err := dial(st.addr, w.path)
	if err != nil {
		return err
	}
	defer c.close()
	ops, errs := checkSample(c, newStream(w, cfg.seed, cfg.clients, focals), newOracle(st.data, cfg.seed),
		w.checks/cfg.checkDiv/w.perReq)
	res.Attempted += ops
	res.fail(errs...)
	return nil
}

// insertAck is one item of a /v1/insert/batch reply.
type insertAck struct {
	ID    *int   `json:"id"`
	Error string `json:"error"`
}

func decodeAcks(n int, status int, body []byte, err error) ([]insertAck, error) {
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("insert batch: status %d: %s", status, body)
	}
	var b struct {
		Results []insertAck `json:"results"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, fmt.Errorf("insert batch reply: %w", err)
	}
	if len(b.Results) != n {
		return nil, fmt.Errorf("insert batch reply has %d items, want %d", len(b.Results), n)
	}
	return b.Results, nil
}

// timeIngest runs w.rounds rounds of the open-loop writer beside the
// open-loop reader, each on a fresh store and each applying the same accepted
// options, and reports the medians over the rounds. The last round's store is
// then checked: answers against brute force over everything acknowledged,
// and the same answers again after recovering the store from disk.
func timeIngest(w *workload, cfg config, res *result) error {
	var (
		p       parts
		setupsS []float64
		genLate latencies
		busy    []float64
	)
	for round := 0; round < w.rounds; round++ {
		t0 := time.Now()
		st, err := setUp(w, cfg.n)
		if err != nil {
			return err
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
		r, err := ingestRound(w, cfg, st, round, res)
		if err == nil && round == w.rounds-1 {
			err = checkIngest(w, cfg, st, r, res)
		}
		if cerr := st.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		p.add(r.rate, &r.lat)
		genLate.ns = append(genLate.ns, r.genLate.ns...)
		busy = append(busy, r.busy)
	}
	res.set("setup_s", median(setupsS), len(setupsS))
	p.report(res)
	late, used := genLate.at(0.99, 1e3)
	res.note("generator ran late by p%g %.0f us over %d requests; writer busy %.0f%% of a round's window (median); records/s by round %.0f",
		100*used, late, len(genLate.ns), 100*median(busy), p.rate)
	return nil
}

// round is what one round of ingest_mixed observed.
type round struct {
	rate     float64   // records acknowledged per second of writer service time
	busy     float64   // writer service time as a share of the window
	lat      latencies // reader, timed by the open-loop rule
	genLate  latencies
	acked    [][]float64 // option by id: the base, then what was accepted
	accepted []int       // ids acknowledged for accepted options, in order
}

func ingestRound(w *workload, cfg config, st *stack, n int, res *result) (*round, error) {
	window := cfg.measure / time.Duration(w.rounds)
	warm := cfg.warm / time.Duration(w.rounds)
	batches := insertBatches(w, st.data, st.rankHolders(w.tau), cfg.seed+int64(n)<<32)
	wc, err := dial(st.addr, "/v1/insert/batch")
	if err != nil {
		return nil, err
	}
	defer wc.close()
	rc, err := dial(st.addr, w.path)
	if err != nil {
		return nil, err
	}
	defer rc.close()

	r := &round{acked: append([][]float64(nil), st.data...)}
	start := time.Now()
	from := start.Add(warm)
	var (
		wg         sync.WaitGroup
		reads      []paced
		readFailed int
		writes     []paced
		writeErrs  []error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		s := newStream(w, cfg.seed, n, nil)
		read := func() {
			body, _ := s.next()
			status, reply, err := rc.post(body)
			readFailed += failedOps(1, status, reply, err)
		}
		reads = openLoop(wallClock{}, start, w.readEvery, int((warm+window)/w.readEvery), func(int) { read() }, read)
	}()
	go func() {
		defer wg.Done()
		var body []byte
		writes = openLoop(wallClock{}, from, window/time.Duration(len(batches)), len(batches), func(i int) {
			body = appendInsertBatch(body[:0], batches[i])
			status, reply, err := wc.post(body)
			acks, err := decodeAcks(len(batches[i]), status, reply, err)
			if err != nil {
				for range batches[i] {
					writeErrs = append(writeErrs, err)
				}
				return
			}
			for j, a := range acks {
				switch {
				case a.ID == nil:
					writeErrs = append(writeErrs, fmt.Errorf("insert %v: %s", batches[i][j], a.Error))
				case *a.ID >= len(st.data):
					if *a.ID != len(r.acked) {
						writeErrs = append(writeErrs, fmt.Errorf("insert %v: id %d, want the next id %d", batches[i][j], *a.ID, len(r.acked)))
						continue
					}
					r.acked = append(r.acked, batches[i][j])
					r.accepted = append(r.accepted, *a.ID)
				}
			}
		}, nil)
	}()
	wg.Wait()

	// The round's latencies are those of the reads that came due while an
	// insert batch was in flight. Over all reads a percentile sits at a place
	// in the stalls that shifts with the share of reads that stall at all;
	// over the reads that collide it is a property of the stalls alone.
	counted := 0
	for _, p := range reads {
		if p.due.Before(from) {
			continue
		}
		counted++
		r.genLate.add(p.genLate().Nanoseconds())
		for _, wr := range writes {
			if !p.due.Before(wr.sent) && !p.due.After(wr.reply) {
				r.lat.add(p.latency().Nanoseconds())
				break
			}
		}
	}
	service := 0.0
	for _, p := range writes {
		service += p.reply.Sub(p.sent).Seconds()
		r.genLate.add(p.genLate().Nanoseconds())
	}
	records := len(batches) * w.batch
	res.Attempted += counted + records
	res.Failed += readFailed
	res.fail(writeErrs...)
	if want := len(batches) * w.accepted; len(r.accepted) != want {
		res.fail(fmt.Errorf("round %d: %d options accepted, the schedule holds %d", n, len(r.accepted), want))
	}
	r.rate = float64(records-len(writeErrs)) / service
	r.busy = service / window.Seconds()
	return r, nil
}

// checkIngest holds the store of a finished round to the oracle and to the
// durability contract.
func checkIngest(w *workload, cfg config, st *stack, r *round, res *result) error {
	rc, err := dial(st.addr, w.path)
	if err != nil {
		return err
	}
	defer rc.close()
	check := newStream(w, cfg.seed, w.rounds, nil)
	o := newOracle(r.acked, cfg.seed)
	var bodies [][]byte
	var before []json.RawMessage
	for i := 0; i < w.checks/cfg.checkDiv; i++ {
		body, qs := check.next()
		bodies = append(bodies, bytes.Clone(body))
		status, reply, err := rc.post(body)
		res.Attempted++
		items, derr := decodeReply(1, reply)
		switch {
		case err != nil || status != http.StatusOK:
			res.fail(fmt.Errorf("check query: status %d: %v", status, err))
		case derr != nil:
			res.fail(derr)
		default:
			if err := o.check(&qs[0], &items[0]); err != nil {
				res.fail(err)
			}
		}
		before = append(before, answerOf(reply))
	}
	if _, err := st.reopen(); err != nil {
		return err
	}
	rc2, err := dial(st.addr, w.path)
	if err != nil {
		return err
	}
	defer rc2.close()
	for i, body := range bodies {
		res.Attempted++
		if _, reply, err := rc2.post(body); err != nil || !bytes.Equal(answerOf(reply), before[i]) {
			res.fail(fmt.Errorf("after recovery, query %s answers differently (%v)", body, err))
		}
	}
	// An acknowledged option is present when inserting it again resolves to
	// the id it was acknowledged under. One that tau later arrivals have come
	// to dominate can never rank again; a snapshot drops it, and inserting
	// it again is filtered.
	wc, err := dial(st.addr, "/v1/insert/batch")
	if err != nil {
		return err
	}
	defer wc.close()
	again := r.acked[len(st.data):]
	status, reply, err := wc.post(appendInsertBatch(nil, again))
	acks, err := decodeAcks(len(again), status, reply, err)
	if err != nil {
		return err
	}
	for i, a := range acks {
		res.Attempted++
		dropped := a.ID != nil && *a.ID == -1 && dominators(r.acked, again[i], w.tau) >= w.tau
		if !dropped && (a.ID == nil || *a.ID != r.accepted[i]) {
			res.fail(fmt.Errorf("after recovery, acknowledged option %d is gone", r.accepted[i]))
		}
	}
	return nil
}

// answerOf extracts the "result" member of a /v1/query reply: the answer
// itself, without the cached flag a restart is allowed to change.
func answerOf(reply []byte) json.RawMessage {
	var e struct {
		Result json.RawMessage `json:"result"`
	}
	if json.Unmarshal(reply, &e) != nil {
		return nil
	}
	return e.Result
}
