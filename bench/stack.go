package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
	"tlevelindex/internal/serve"
	"tlevelindex/internal/store"
)

// stack is the system under test as `lvserve -data-dir` assembles it with
// default flags: a durable store, the store-backed handler (4096-entry
// answer cache, recorder sampling 1 request in 64) and net/http on a
// loopback port, all inside the benchmark's process.
type stack struct {
	data [][]float64
	dir  string
	st   *store.Store
	h    *serve.Handler
	addr string
	// stopServing closes the listener and every connection.
	stopServing func()
	// What the one index build inside setUp took and reported.
	buildTime  time.Duration
	buildStats tlx.BuildStats
}

// setUp generates the workload's dataset, builds its index into a fresh
// store under the temporary directory and starts serving it.
func setUp(w *workload, n int) (*stack, error) {
	s := &stack{data: datagen.Generate(datagen.IND, n, w.d, datasetSeed)}
	var err error
	if s.dir, err = os.MkdirTemp("", "tlxbench-"+w.name+"-"); err != nil {
		return nil, err
	}
	s.st, err = store.Open(store.Options{Dir: s.dir}, func() (*tlx.Index, error) {
		t0 := time.Now()
		ix, err := tlx.Build(s.data, w.tau)
		if err == nil {
			s.buildTime, s.buildStats = time.Since(t0), ix.Stats()
		}
		return ix, err
	})
	if err == nil {
		if err = s.serve(); err != nil {
			s.st.Close()
		}
	}
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	return s, nil
}

// listenAndServe serves h on a fresh loopback port; stop closes the listener
// and every connection and waits for the accept loop to return.
func listenAndServe(h http.Handler) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns http.ErrServerClosed once stop closes srv
		close(done)
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// serve puts a fresh handler and listener in front of s.st.
func (s *stack) serve() (err error) {
	s.h = serve.NewStoreHandler(s.st, serve.Config{})
	s.addr, s.stopServing, err = listenAndServe(s.h.Mux())
	return err
}

// reopen closes the store and recovers it from the bytes in its directory
// alone, then serves it again.
func (s *stack) reopen() (time.Duration, error) {
	s.stopServing()
	if err := s.st.Close(); err != nil {
		return 0, fmt.Errorf("close store: %w", err)
	}
	t0 := time.Now()
	st, err := store.Open(store.Options{Dir: s.dir}, func() (*tlx.Index, error) {
		return nil, errors.New("data directory lost its snapshot")
	})
	if err != nil {
		return 0, fmt.Errorf("reopen store: %w", err)
	}
	took := time.Since(t0)
	s.st = st
	return took, s.serve()
}

func (s *stack) close() error {
	s.stopServing()
	err := s.st.Close()
	os.RemoveAll(s.dir)
	return err
}

// focals lists the options that hold some rank within tau: the ones a kSPR
// query has a non-trivial answer for.
func (s *stack) focals(tau int) []int {
	seen := map[int]bool{}
	var out []int
	for l := 1; l <= tau; l++ {
		for _, o := range s.st.Index().LevelOptions(l) {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// rankHolders returns the options focals lists: whatever else the index
// keeps in its pool, these it does.
func (s *stack) rankHolders(tau int) [][]float64 {
	var out [][]float64
	for _, id := range s.focals(tau) {
		out = append(out, s.data[id])
	}
	return out
}
