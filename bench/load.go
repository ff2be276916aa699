package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection posting JSON to one path. It
// writes requests by hand and reads replies with net/http's parser, so the
// client side costs little next to the server under test.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	head []byte
	out  []byte
	body bytes.Buffer
}

func dial(addr, path string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10),
		head: []byte("POST " + path + " HTTP/1.1\r\nHost: " + addr +
			"\r\nContent-Type: application/json\r\nContent-Length: ")}, nil
}

// post sends body and returns the reply's status and body; the body is valid
// until the next post.
func (c *conn) post(body []byte) (int, []byte, error) {
	c.out = append(c.out[:0], c.head...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if _, err := c.c.Write(c.out); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, fmt.Errorf("read response body: %w", err)
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *conn) close() { c.c.Close() }

var errorKey = []byte(`"error":`)

// failedOps counts the operations of one reply that failed: all of them on a
// transport error or a non-200, otherwise one per item carrying an error.
func failedOps(ops, status int, body []byte, err error) int {
	if err != nil || status != http.StatusOK {
		return ops
	}
	return min(ops, bytes.Count(body, errorKey))
}

// nSlices is the number of equal parts a closed-loop window is cut into.
const nSlices = 10

// window is what one measured window observed, cut into nSlices by the time a
// request completed.
type window struct {
	lat    [nSlices]latencies // per request
	ops    [nSlices]int       // operations attempted
	failed int
	err    error // first transport error, for the report
}

// closedLoop drives one connection per stream, each sending its next request
// as soon as the previous reply arrived, for warm+measure; requests that
// start and finish inside the measured part are counted.
func closedLoop(addr string, streams []*stream, warm, measure time.Duration) (window, error) {
	conns := make([]*conn, len(streams))
	for i, s := range streams {
		c, err := dial(addr, s.w.path)
		if err != nil {
			return window{}, err
		}
		defer c.close()
		conns[i] = c
	}
	from := time.Now().Add(warm)
	until := from.Add(measure)
	parts := make([]window, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(s *stream, c *conn, out *window) {
			defer wg.Done()
			for {
				body, _ := s.next()
				t0 := time.Now()
				if !t0.Before(until) {
					return
				}
				status, reply, err := c.post(body)
				t1 := time.Now()
				if err != nil && out.err == nil {
					out.err = err
				}
				if t0.Before(from) || t1.After(until) {
					if err != nil {
						return
					}
					continue
				}
				at := min(int(nSlices*t1.Sub(from)/measure), nSlices-1)
				out.lat[at].add(t1.Sub(t0).Nanoseconds())
				out.ops[at] += s.w.perReq
				out.failed += failedOps(s.w.perReq, status, reply, err)
				if err != nil {
					return // the connection is gone
				}
			}
		}(streams[i], conns[i], &parts[i])
	}
	wg.Wait()
	var total window
	for _, p := range parts {
		for i := range p.lat {
			total.lat[i].ns = append(total.lat[i].ns, p.lat[i].ns...)
			total.ops[i] += p.ops[i]
		}
		total.failed += p.failed
		if total.err == nil {
			total.err = p.err
		}
	}
	return total, nil
}

// clock lets the open-loop pacing run against simulated time in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// paced is one open-loop request's timeline.
type paced struct {
	due, sent, reply time.Time
	stalled          bool // the previous reply arrived after this one was due
}

// latency is timed from the due time when the system made the request late
// (the stall is the system's to answer for), and from the actual send when
// only the generator was late.
func (p paced) latency() time.Duration {
	if p.stalled {
		return p.reply.Sub(p.due)
	}
	return p.reply.Sub(p.sent)
}

// genLate is how late the generator itself sent the request; zero when the
// lateness was the system's.
func (p paced) genLate() time.Duration {
	if p.stalled {
		return 0
	}
	return p.sent.Sub(p.due)
}

// openLoop issues n requests on one connection, request i due at
// start+i*period whatever happened to the ones before it; do performs
// request i and returns when its reply arrived. Until a request is due the
// generator sleeps, or, given fill, keeps the connection busy with requests
// that are not counted: a connection that never idles never pays the
// sandbox's millisecond-late timers and cross-CPU wake-ups, and whatever
// lateness a counted request then has is a reply it waited for.
func openLoop(clk clock, start time.Time, period time.Duration, n int, do func(i int), fill func()) []paced {
	out := make([]paced, n)
	prevReply := start
	for i := range out {
		due := start.Add(time.Duration(i) * period)
		for wait := due.Sub(clk.Now()); wait > 0; wait = due.Sub(clk.Now()) {
			if fill == nil {
				clk.Sleep(wait)
				break
			}
			fill()
			prevReply = clk.Now()
		}
		p := paced{due: due, sent: clk.Now(), stalled: prevReply.After(due)}
		do(i)
		p.reply = clk.Now()
		prevReply = p.reply
		out[i] = p
	}
	return out
}
