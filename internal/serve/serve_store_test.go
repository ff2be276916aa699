package serve

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/store"
)

// newStoreServer opens (or recovers) a store in dir and serves it. The
// builder only runs on a fresh directory; restarts recover from disk.
func newStoreServer(t *testing.T, dir string) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Logger: testLogger(t)}, func() (*tlx.Index, error) {
		return tlx.Build(hotels, 3)
	})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewStoreHandler(st, Config{}).Mux())
	t.Cleanup(srv.Close)
	return srv, st
}

// TestInsertSurvivesRestart is the end-to-end durability contract: an
// insert acknowledged over HTTP must be visible — under the same external
// id — from a handler rebuilt out of the data directory alone.
func TestInsertSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, st := newStoreServer(t, dir)

	var ins struct {
		ID int `json:"id"`
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.95,0.95]}`, &ins); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if ins.ID != 5 {
		t.Fatalf("inserted id = %d, want 5", ins.ID)
	}
	// Simulate a process restart: drop the handler and store, reopen from
	// the directory with no builder (nothing in memory survives).
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: dir, Logger: testLogger(t)}, nil)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer st2.Close()
	srv2 := httptest.NewServer(NewStoreHandler(st2, Config{}).Mux())
	defer srv2.Close()

	var top struct {
		Options []int `json:"options"`
	}
	if code, _ := queryResult(t, srv2.URL, `{"family":"topk","w":[0.5,0.5],"k":1}`, &top); code != 200 {
		t.Fatalf("topk after restart: status %d", code)
	}
	if len(top.Options) != 1 || top.Options[0] != ins.ID {
		t.Errorf("top-1 after restart = %v, want [%d]", top.Options, ins.ID)
	}
	// Ids keep advancing from the recovered high-water mark.
	if code := postJSON(t, srv2.URL+"/v1/insert", `{"option":[0.97,0.96]}`, &ins); code != 200 || ins.ID != 6 {
		t.Errorf("post-restart insert: code=%d id=%d, want 200/6", code, ins.ID)
	}
}

// TestAdminEndpoints covers /v1/admin/status and /v1/admin/snapshot in
// store-backed mode: status reflects WAL growth, snapshot drains it, and an
// extended index refuses to snapshot with 409.
func TestAdminEndpoints(t *testing.T) {
	srv, _ := newStoreServer(t, t.TempDir())

	var status struct {
		AppliedLSN  uint64 `json:"appliedLsn"`
		SnapshotLSN uint64 `json:"snapshotLsn"`
		WALRecords  int    `json:"walRecords"`
		ReadOnly    bool   `json:"readOnly"`
	}
	if code := getJSON(t, srv.URL+"/v1/admin/status", &status); code != 200 {
		t.Fatalf("status endpoint: %d", code)
	}
	if status.AppliedLSN != 0 || status.WALRecords != 0 || status.ReadOnly {
		t.Errorf("fresh status: %+v", status)
	}
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.95,0.95]}`, nil); code != 200 {
		t.Fatal("insert failed")
	}
	if code := getJSON(t, srv.URL+"/v1/admin/status", &status); code != 200 || status.WALRecords != 1 {
		t.Errorf("status after insert: code=%d %+v", code, status)
	}

	var snap struct {
		LSN      uint64 `json:"lsn"`
		Bytes    int64  `json:"bytes"`
		UpToDate bool   `json:"upToDate"`
	}
	if code := postJSON(t, srv.URL+"/v1/admin/snapshot", "", &snap); code != 200 {
		t.Fatalf("snapshot endpoint: %d", code)
	}
	if snap.LSN != 1 || snap.UpToDate || snap.Bytes == 0 {
		t.Errorf("snapshot info: %+v", snap)
	}
	if code := getJSON(t, srv.URL+"/v1/admin/status", &status); code != 200 || status.WALRecords != 0 || status.SnapshotLSN != 1 {
		t.Errorf("status after snapshot: %+v", status)
	}
	// An idle repeat is up to date.
	if code := postJSON(t, srv.URL+"/v1/admin/snapshot", "", &snap); code != 200 || !snap.UpToDate {
		t.Errorf("idle snapshot: code=%d %+v", code, snap)
	}
	// GET on the snapshot endpoint is 405.
	if code := getJSON(t, srv.URL+"/v1/admin/snapshot", nil); code != 405 {
		t.Errorf("GET snapshot: status %d, want 405", code)
	}
	// A query past τ is refused with 422; the next snapshot is an ordinary
	// up-to-date one.
	if code, _ := postQuery(t, srv.URL, `{"family":"topk","w":[0.5,0.5],"k":5}`); code != http.StatusUnprocessableEntity {
		t.Fatalf("deep topk: status %d, want 422", code)
	}
	if code := postJSON(t, srv.URL+"/v1/admin/snapshot", "", &snap); code != 200 || !snap.UpToDate {
		t.Errorf("snapshot after a refused deep query: code=%d %+v", code, snap)
	}
}

// TestAdminHiddenInMemoryMode: a memory-only handler must not expose the
// admin surface at all.
func TestAdminHiddenInMemoryMode(t *testing.T) {
	srv := newServer(t)
	if code := getJSON(t, srv.URL+"/v1/admin/status", nil); code != 404 {
		t.Errorf("memory-mode admin status: %d, want 404", code)
	}
	if code := postJSON(t, srv.URL+"/v1/admin/snapshot", "", nil); code != 404 {
		t.Errorf("memory-mode admin snapshot: %d, want 404", code)
	}
}

// TestStoreBackedQueries sanity-checks that the query surface is unchanged
// in store-backed mode.
func TestStoreBackedQueries(t *testing.T) {
	srv, _ := newStoreServer(t, t.TempDir())
	var body struct {
		Options []int `json:"options"`
	}
	if code, _ := queryResult(t, srv.URL, `{"family":"topk","w":[0.18,0.82],"k":2}`, &body); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(body.Options) != 2 || body.Options[0] != 0 || body.Options[1] != 3 {
		t.Errorf("topk = %v, want [0 3]", body.Options)
	}
}

// TestLSNHappensBefore is the -race consistency check on both writable
// modes: no query may observe an answer — cached or fresh — with an LSN
// older than the last acked insert that happened-before it. Inserters
// record the LSN of each accepted insert after its 200; queriers snapshot
// that watermark before issuing and require the response LSN to be at
// least the snapshot.
func TestLSNHappensBefore(t *testing.T) {
	t.Run("memory", func(t *testing.T) { checkLSNHappensBefore(t, newServer(t).URL) })
	t.Run("store", func(t *testing.T) {
		srv, _ := newStoreServer(t, t.TempDir())
		checkLSNHappensBefore(t, srv.URL)
	})
}

func checkLSNHappensBefore(t *testing.T, base string) {
	// post decodes a 200 answer into out; it reports on the calling
	// goroutine with t.Error, never t.Fatal.
	post := func(path, body string, out any) bool {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
			return false
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	var lastAcked atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Strictly improving options are never filtered, so every
				// insert advances the LSN.
				v := 1.0 + float64(g*8+i)/100
				var ins struct {
					ID  int    `json:"id"`
					LSN uint64 `json:"lsn"`
				}
				if !post("/v1/insert", fmt.Sprintf(`{"option":[%g,%g]}`, v, v), &ins) {
					return
				}
				if ins.ID < 0 {
					continue
				}
				// CAS-max: the watermark only moves forward.
				for {
					cur := lastAcked.Load()
					if ins.LSN <= cur || lastAcked.CompareAndSwap(cur, ins.LSN) {
						break
					}
				}
			}
		}(g)
	}
	queries := []string{
		`{"family":"topk","w":[0.18,0.82],"k":2}`,
		`{"family":"kspr","focal":0,"k":2}`,
		`{"family":"maxrank","focal":1}`,
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				watermark := lastAcked.Load() // happens-before the query
				var env struct {
					Cached bool   `json:"cached"`
					LSN    uint64 `json:"lsn"`
				}
				if !post("/v1/query", queries[(g+i)%len(queries)], &env) {
					return
				}
				if env.LSN < watermark {
					t.Errorf("stale answer: lsn %d < acked watermark %d (cached=%v)",
						env.LSN, watermark, env.Cached)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDeepQueryLeavesWritesOpen: queries only read. A topk with k = τ+1
// answers 422, and the insert and the snapshot after it answer 200, on a
// memory-only handler and on a store-backed one alike. (A memory-only
// handler has no snapshot endpoint: its 404 is the JSON envelope.)
func TestDeepQueryLeavesWritesOpen(t *testing.T) {
	storeSrv, _ := newStoreServer(t, t.TempDir())
	for _, c := range []struct {
		name     string
		url      string
		snapshot int
	}{
		{"memory", newServer(t).URL, http.StatusNotFound},
		{"store", storeSrv.URL, http.StatusOK},
	} {
		if code, _ := postQuery(t, c.url, `{"family":"topk","w":[0.5,0.5],"k":4}`); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: topk at k = τ+1: status %d, want 422", c.name, code)
		}
		if code := postJSON(t, c.url+"/v1/insert", `{"option":[0.95,0.95]}`, nil); code != http.StatusOK {
			t.Errorf("%s: insert after the refused query: status %d, want 200", c.name, code)
		}
		if code := postJSON(t, c.url+"/v1/admin/snapshot", "", nil); code != c.snapshot {
			t.Errorf("%s: snapshot after the refused query: status %d, want %d", c.name, code, c.snapshot)
		}
	}
}

// testLogger returns a logger that writes every record, debug included, to
// t.Log.
func testLogger(t testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

type testLogWriter struct{ t testing.TB }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}
