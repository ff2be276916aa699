package replicate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tlx "tlevelindex"
	"tlevelindex/datagen"
	"tlevelindex/internal/obs"
	"tlevelindex/internal/serve"
	"tlevelindex/internal/store"
)

var hotels = [][]float64{
	{0.62, 0.76}, {0.90, 0.48}, {0.73, 0.33}, {0.26, 0.64}, {0.30, 0.24},
}

// newPrimary opens a durable store over hotels and serves it.
func newPrimary(t *testing.T, dir string) (*httptest.Server, *store.Store) {
	t.Helper()
	return newPrimaryOver(t, dir, hotels, 3)
}

// newPrimaryOver is newPrimary over any dataset and τ.
func newPrimaryOver(t testing.TB, dir string, data [][]float64, tau int) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Logger: testLogger(t)}, func() (*tlx.Index, error) {
		return tlx.Build(data, tau)
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(serve.NewStoreHandler(st, serve.Config{}).Mux())
	t.Cleanup(srv.Close)
	return srv, st
}

func startFollower(t *testing.T, opts Options) *Follower {
	t.Helper()
	if opts.PollInterval == 0 {
		opts.PollInterval = 10 * time.Millisecond
	}
	f, err := Start(opts)
	if err != nil {
		t.Fatalf("replicate.Start: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// waitCaughtUp polls until the follower's applied LSN reaches want.
func waitCaughtUp(t *testing.T, f *Follower, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.AppliedLSN() < want {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, want %d (state %s)", f.AppliedLSN(), want, f.StateName())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postQuery returns the raw /v1/query response bytes for one envelope.
func postQuery(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %s: status %d: %s", body, resp.StatusCode, raw)
	}
	return raw
}

// parityQueries spans every family, so a divergent replica cannot hide
// behind one code path.
var parityQueries = []string{
	`{"family":"topk","w":[0.18,0.82],"k":2}`,
	`{"family":"topk","w":[0.5,0.5],"k":3}`,
	`{"family":"kspr","focal":0,"k":2}`,
	`{"family":"utk","lo":[0.35],"hi":[0.45],"k":3}`,
	`{"family":"oru","w":[0.5,0.5],"k":2,"m":3}`,
	`{"family":"maxrank","focal":2}`,
}

// assertByteIdentical demands the follower answer every parity query with
// exactly the primary's bytes — same result, same stats, same LSN stamp.
func assertByteIdentical(t *testing.T, primaryURL, followerURL string) {
	t.Helper()
	for _, q := range parityQueries {
		want := postQuery(t, primaryURL, q)
		got := postQuery(t, followerURL, q)
		if !bytes.Equal(want, got) {
			t.Errorf("query %s diverges:\nprimary:  %s\nfollower: %s", q, want, got)
		}
	}
}

// TestFollowerServesByteIdentical is the acceptance contract: a follower
// bootstrapped purely from the shipped index — no index build — serves
// byte-identical query envelopes at the primary's handed-off LSN from the
// index it loads onto the heap, keeps up with live inserts, and refuses
// writes with a pointer at the primary.
func TestFollowerServesByteIdentical(t *testing.T) {
	t.Run("heap", func(t *testing.T) {
		srv, st := newPrimary(t, t.TempDir())
		if _, err := st.Insert([]float64{0.95, 0.95}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
		// One record beyond the snapshot: the follower must get the
		// current index, not the newest snapshot.
		if _, err := st.Insert([]float64{0.97, 0.20}); err != nil {
			t.Fatal(err)
		}

		f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: t.TempDir()})
		if got, want := f.AppliedLSN(), st.Status().AppliedLSN; got != want {
			t.Fatalf("bootstrap landed at LSN %d, primary at %d", got, want)
		}
		fsrv := httptest.NewServer(serve.NewFollowerHandler(f, serve.Config{}).Mux())
		defer fsrv.Close()
		assertByteIdentical(t, srv.URL, fsrv.URL)

		// A live insert on the primary reaches the follower via the
		// follow loop and parity holds at the new LSN.
		if _, err := st.Insert([]float64{0.99, 0.99}); err != nil {
			t.Fatal(err)
		}
		waitCaughtUp(t, f, st.Status().AppliedLSN)
		assertByteIdentical(t, srv.URL, fsrv.URL)

		// The follower is read-only; the 403 names the primary.
		resp, err := http.Post(fsrv.URL+"/v1/insert", "application/json",
			strings.NewReader(`{"option":[0.98,0.98]}`))
		if err != nil {
			t.Fatal(err)
		}
		var deny struct {
			Error   string `json:"error"`
			Primary string `json:"primary"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&deny); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || deny.Primary != srv.URL {
			t.Errorf("follower insert: status %d primary %q, want 403 pointing at %s",
				resp.StatusCode, deny.Primary, srv.URL)
		}

		// Status reports the follow state.
		var status struct {
			Role    string `json:"role"`
			State   string `json:"state"`
			LagLSNs uint64 `json:"lagLsns"`
		}
		sresp, err := http.Get(fsrv.URL + "/v1/admin/status")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(sresp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if status.Role != "follower" || status.State != "following" || status.LagLSNs != 0 {
			t.Errorf("follower status: %+v", status)
		}
	})
}

// TestFollowerReadersAcrossInstalls runs readers against a follower while
// the primary publishes 60 times and the follower installs each. A reader
// takes the follower's lock only to load the LSN and the index, and
// queries after releasing it. Every publish makes its option the best at
// one corner of the simplex, so the option accepted at that LSN must rank
// first in the loaded index. Under -race this is the check that an install
// never changes or releases an index a reader still holds.
func TestFollowerReadersAcrossInstalls(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: t.TempDir(), PollInterval: time.Millisecond})
	const readers, installs = 4, 60
	var done atomic.Bool
	var seen atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				f.Mutex().RLock()
				lsn, ix := f.AppliedLSN(), f.Index()
				f.Mutex().RUnlock()
				if top, err := ix.TopK([]float64{0.5, 0.5}, 3); err != nil || len(top) != 3 {
					t.Errorf("top-3 at LSN ≥ %d: %v %v", lsn, top, err)
					return
				}
				if lsn == 0 {
					continue
				}
				// hotels holds ids 0..4; the record at LSN l got id 4+l.
				if rank, err := ix.MaxRank(4 + int(lsn)); err != nil || rank != 1 {
					t.Errorf("option of LSN %d: rank %d (%v), want 1", lsn, rank, err)
					return
				}
				seen.Add(1)
			}
		}()
	}
	for i := 1; i <= installs; i++ {
		opt := []float64{0.3, 0.3}
		opt[i%2] = 1 + 0.001*float64(i)
		id, lsn, err := st.InsertLSN(opt)
		if err != nil || id != 4+int(lsn) || lsn != uint64(i) {
			t.Fatalf("publish %d: id %d lsn %d %v", i, id, lsn, err)
		}
		waitCaughtUp(t, f, lsn)
	}
	done.Store(true)
	wg.Wait()
	if seen.Load() == 0 {
		t.Fatal("no reader ran against an installed publish")
	}
	assertSameBytes(t, st, f)
}

// TestFollowerResumesFromLocalSnapshot: a cleanly stopped follower
// restarts from its local slot. While the primary has not moved, nothing
// is downloaded. Once the primary has moved on — and snapshotted and
// pruned its WAL past the follower's LSN — the restart installs the
// primary's current index into its second slot.
func TestFollowerResumesFromLocalSnapshot(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	if _, err := st.Insert([]float64{0.95, 0.95}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: dir})
	first := f.AppliedLSN()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if before := dirNames(t, dir); fmt.Sprint(before) != "[slot-a.idx]" {
		t.Fatalf("follower dir holds %v, want one slot", before)
	}

	rec := obs.NewRecorder(8, -1, nil)
	f2 := startFollower(t, Options{PrimaryURL: srv.URL, Dir: dir, Recorder: rec})
	if got := f2.AppliedLSN(); got != first {
		t.Fatalf("resumed at LSN %d, want %d", got, first)
	}
	if phases := bootstrapPhases(t, rec); phases["replicate.download"] {
		t.Errorf("resume at the primary's LSN downloaded the index again: %v", phases)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}

	// History advances while the follower is down, and each round's
	// snapshot rotates the primary's WAL; two snapshots are retained, so
	// the segment holding the follower's LSN is pruned.
	for _, opt := range [][]float64{{0.97, 0.20}, {0.99, 0.99}, {0.20, 0.97}, {0.985, 0.5}} {
		if _, err := st.Insert(opt); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	want := st.Status().AppliedLSN
	if want <= first+2 {
		t.Fatalf("primary at LSN %d: too few accepted inserts to prune past %d", want, first)
	}
	f3 := startFollower(t, Options{PrimaryURL: srv.URL, Dir: dir})
	if got := f3.AppliedLSN(); got != want {
		t.Fatalf("restarted at LSN %d, want %d", got, want)
	}
	if after := dirNames(t, dir); fmt.Sprint(after) != "[slot-a.idx slot-b.idx]" {
		t.Errorf("follower dir holds %v after the restart, want the two slots", after)
	}
	assertSameBytes(t, st, f3)
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFollowerKilledMidBootstrap is the crash matrix for the bootstrap
// path: a follower killed mid-download leaves a torn slot, one killed by
// bit rot a corrupt one. A restart must skip both, fetch the index into one
// of them and reach a consistent index.
func TestFollowerKilledMidBootstrap(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	if _, err := st.Insert([]float64{0.95, 0.95}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "slot-a.idx"), []byte("TLXSHIP2 torn mid-download"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "slot-b.idx"), []byte("TLVLIDX3 but not really"), 0o644); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: dir})
	if got, want := f.AppliedLSN(), st.Status().AppliedLSN; got != want {
		t.Fatalf("recovered follower at LSN %d, want %d", got, want)
	}
	if _, lsn, _ := store.NewSlots(dir).Load(testLogger(t)); lsn != st.AppliedLSN() {
		t.Errorf("newest local slot at LSN %d, want %d", lsn, st.AppliedLSN())
	}
}

// corruptingProxy fronts a primary and flips one byte inside the index
// body of the first n streams fetched without a from parameter. Polls that
// carry one pass through.
type corruptingProxy struct {
	backend http.Handler
	left    atomic.Int64
	served  atomic.Int64
}

func (p *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	full := strings.HasSuffix(r.URL.Path, "/snapshot/stream") && r.URL.Query().Get("from") == ""
	if !full || p.left.Add(-1) < 0 {
		p.backend.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	p.backend.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if len(body) > 100 {
		body[100] ^= 0x40 // inside the X3 index: its checksum must catch this
	}
	p.served.Add(1)
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestCorruptStreamRefetched: a bit-flipped shipped stream must be
// rejected by the checksums and re-fetched; the follower comes up
// consistent with no manual intervention and no partial state.
func TestCorruptStreamRefetched(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	if _, err := st.Insert([]float64{0.95, 0.95}); err != nil {
		t.Fatal(err)
	}
	proxy := &corruptingProxy{backend: srv.Config.Handler}
	proxy.left.Store(2)
	psrv := httptest.NewServer(proxy)
	defer psrv.Close()

	dir := t.TempDir()
	f := startFollower(t, Options{PrimaryURL: psrv.URL, Dir: dir, Retries: 3})
	if proxy.served.Load() != 2 {
		t.Fatalf("proxy corrupted %d streams, want 2", proxy.served.Load())
	}
	if got, want := f.AppliedLSN(), st.Status().AppliedLSN; got != want {
		t.Fatalf("follower at LSN %d after re-fetch, want %d", got, want)
	}
	// A rejected stream leaves its slot the spare, so both corrupt streams
	// and then the good one went into the same slot.
	if names := dirNames(t, dir); fmt.Sprint(names) != "[slot-a.idx]" {
		t.Errorf("follower dir holds %v, want the one slot every fetch overwrote", names)
	}
}

// TestCorruptStreamExhaustsRetries: when every fetch arrives corrupt the
// bootstrap fails outright — no follower, no partially-registered replica,
// and the error says why.
func TestCorruptStreamExhaustsRetries(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	if _, err := st.Insert([]float64{0.95, 0.95}); err != nil {
		t.Fatal(err)
	}
	proxy := &corruptingProxy{backend: srv.Config.Handler}
	proxy.left.Store(1 << 30)
	psrv := httptest.NewServer(proxy)
	defer psrv.Close()

	dir := t.TempDir()
	f, err := Start(Options{PrimaryURL: psrv.URL, Dir: dir, Retries: 2})
	if err == nil {
		f.Close()
		t.Fatal("bootstrap from an always-corrupt stream succeeded")
	}
	if !errors.Is(err, tlx.ErrBadFormat) && !errors.Is(err, store.ErrCorrupt) {
		t.Errorf("bootstrap error %v does not identify the corruption", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("bootstrap error %v does not report the retry budget", err)
	}
	// The corrupt download stays in its slot, which no load accepts:
	// nothing for a restart to trust.
	if ix, _, _ := store.NewSlots(dir).Load(testLogger(t)); ix != nil {
		t.Error("a corrupt bootstrap left a slot that loads")
	}
}

// TestFollowerBytesEqualPrimary: after every publish — an insert batch
// that accepts a record — the follower reaches the primary's LSN holding
// exactly the primary's index bytes in the index it loaded onto the heap,
// and once the primary snapshots at that LSN, the two newest slot files
// are the same bytes.
func TestFollowerBytesEqualPrimary(t *testing.T) {
	for _, shape := range []struct{ d, tau int }{{2, 6}, {3, 9}} {
		shape := shape
		t.Run(fmt.Sprintf("d=%d_tau=%d/heap", shape.d, shape.tau), func(t *testing.T) {
			base := datagen.Generate(datagen.IND, 40, shape.d, 1)
			srv, st := newPrimaryOver(t, t.TempDir(), base, shape.tau)
			f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: t.TempDir()})
			assertSameBytes(t, st, f)
			arrivals := datagen.Generate(datagen.IND, 16, shape.d, 2)
			publishes := 0
			for i := 0; i < len(arrivals); i += 4 {
				before := st.AppliedLSN()
				if _, _, err := st.InsertBatchLSN(arrivals[i : i+4]); err != nil {
					t.Fatal(err)
				}
				if st.AppliedLSN() == before {
					continue
				}
				publishes++
				waitCaughtUp(t, f, st.AppliedLSN())
				if got, want := f.AppliedLSN(), st.AppliedLSN(); got != want {
					t.Fatalf("follower at LSN %d, primary at %d", got, want)
				}
				assertSameBytes(t, st, f)
				if _, err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
				if got, want := newestSlotBytes(t, f.opts.Dir), newestSlotBytes(t, st.Status().Dir); !bytes.Equal(got, want) {
					t.Fatalf("follower slot (%d bytes) differs from the primary's (%d bytes)", len(got), len(want))
				}
			}
			if publishes < 2 {
				t.Fatalf("only %d of 4 batches accepted a record", publishes)
			}
		})
	}
}

// assertSameBytes demands the follower's index serialize to exactly the
// primary's bytes.
func assertSameBytes(t *testing.T, st *store.Store, f *Follower) {
	t.Helper()
	want, _ := st.Index().AppendBinary(nil)
	f.Mutex().RLock()
	got, _ := f.Index().AppendBinary(nil)
	f.Mutex().RUnlock()
	if !bytes.Equal(got, want) {
		t.Fatalf("follower index (%d bytes) differs from the primary's (%d bytes)", len(got), len(want))
	}
}

// newestSlotBytes reads the slot a load of dir takes.
func newestSlotBytes(t *testing.T, dir string) []byte {
	t.Helper()
	p := store.NewSlots(dir)
	if ix, _, _ := p.Load(testLogger(t)); ix == nil {
		t.Fatalf("no slot of %s loads", dir)
	}
	blob, err := os.ReadFile(p.Newest())
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestFollowerDirHoldsTwoSlots: over 20 installs a follower writes the
// same two files in place. Its directory lists exactly the two slots, each
// still the file the first installs created: nothing was renamed over it
// and nothing unlinked.
func TestFollowerDirHoldsTwoSlots(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	dir := t.TempDir()
	f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: dir, PollInterval: time.Millisecond})
	var first []os.FileInfo
	for i := 1; i <= 20; i++ {
		opt := []float64{0.3, 0.3}
		opt[i%2] = 1 + 0.001*float64(i)
		if _, err := st.Insert(opt); err != nil {
			t.Fatal(err)
		}
		waitCaughtUp(t, f, st.AppliedLSN())
		if i == 2 {
			first = slotInfos(t, dir)
		}
	}
	if names := dirNames(t, dir); fmt.Sprint(names) != "[slot-a.idx slot-b.idx]" {
		t.Fatalf("follower dir holds %v after 20 installs, want the two slots", names)
	}
	for i, fi := range slotInfos(t, dir) {
		if !os.SameFile(fi, first[i]) {
			t.Errorf("%s was replaced, not written in place", fi.Name())
		}
	}
	assertSameBytes(t, st, f)
}

func slotInfos(t *testing.T, dir string) []os.FileInfo {
	t.Helper()
	var out []os.FileInfo
	for _, name := range []string{"slot-a.idx", "slot-b.idx"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fi)
	}
	return out
}

// TestFollowerDirOpensAsStore: a follower's directory holds slots and no
// WAL segment, and opens as a primary's data directory at the LSN of its
// newest slot — the way a directory in an older layout migrates.
func TestFollowerDirOpensAsStore(t *testing.T) {
	srv, st := newPrimary(t, t.TempDir())
	for _, opt := range [][]float64{{0.95, 0.95}, {0.97, 0.20}} {
		if _, err := st.Insert(opt); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	f := startFollower(t, Options{PrimaryURL: srv.URL, Dir: dir})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Options{Dir: dir, Logger: testLogger(t)}, nil)
	if err != nil {
		t.Fatalf("opening the follower's directory as a store: %v", err)
	}
	defer st2.Close()
	if got, want := st2.AppliedLSN(), st.AppliedLSN(); got != want {
		t.Fatalf("store over the follower's dir at LSN %d, want %d", got, want)
	}
	want, _ := st.Index().AppendBinary(nil)
	if got, _ := st2.Index().AppendBinary(nil); !bytes.Equal(got, want) {
		t.Fatal("store over the follower's dir holds other index bytes than the primary")
	}
	// It is a primary now: an insert is logged and acknowledged.
	if id, lsn, err := st2.InsertLSN([]float64{0.99, 0.99}); err != nil || id < 0 || lsn != st.AppliedLSN()+1 {
		t.Fatalf("insert into the opened follower dir: id %d lsn %d %v", id, lsn, err)
	}
}

// bootstrapPhases returns the span names of the one bootstrap trace rec
// holds.
func bootstrapPhases(t *testing.T, rec *obs.Recorder) map[string]bool {
	t.Helper()
	traces := rec.Snapshot(0, "", 0)
	if len(traces) != 1 || traces[0].Endpoint != "replicate.bootstrap" {
		t.Fatalf("recorder holds %d traces, want one bootstrap", len(traces))
	}
	phases := map[string]bool{}
	for _, sp := range traces[0].Spans {
		phases[sp.Name] = true
	}
	return phases
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
