package replicate

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"tlevelindex/internal/obs"
)

// TestBootstrapTracePropagation: a follower's bootstrap runs as one trace
// — recorded locally with its download phase, and propagated
// over the wire so the primary's flight recorder shows the snapshot-stream
// request under the follower's trace id.
func TestBootstrapTracePropagation(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newPrimary(t, filepath.Join(dir, "primary"))
	rec := obs.NewRecorder(32, -1, nil)
	f := startFollower(t, Options{
		PrimaryURL: srv.URL,
		Dir:        filepath.Join(dir, "follower"),
		Recorder:   rec,
	})
	id := f.TraceID()
	if id.IsZero() {
		t.Fatal("no bootstrap trace id after Start")
	}

	// The follower's own recorder holds the completed bootstrap trace.
	if phases := bootstrapPhases(t, rec); !phases["replicate.download"] {
		t.Fatalf("bootstrap download missing from %v", phases)
	}
	if bt := rec.Snapshot(0, "", 0)[0]; bt.ID != id || bt.Status != http.StatusOK {
		t.Fatalf("bootstrap trace %s status %d, want %s 200", bt.ID, bt.Status, id)
	}

	// The primary adopted the forwarded traceparent: its flight recorder
	// shows the stream request under the same trace id. The primary's
	// bookkeeping finishes just after the follower drains the stream, so
	// poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if primaryHasTrace(t, srv.URL, id) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never recorded the bootstrap fetch under trace %s", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func primaryHasTrace(t *testing.T, base string, id obs.TraceID) bool {
	t.Helper()
	resp, err := http.Get(base + "/v1/admin/trace?n=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Traces []struct {
			TraceID  string `json:"traceId"`
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, tr := range out.Traces {
		if tr.TraceID == id.String() && tr.Endpoint == "/v1/admin/snapshot/stream" && tr.Status == http.StatusOK {
			return true
		}
	}
	return false
}
