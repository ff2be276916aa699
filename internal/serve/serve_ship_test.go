package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	tlx "tlevelindex"
	"tlevelindex/internal/store"
)

// fetchShip downloads one shipped stream over HTTP and loads it like a
// follower: header, then the index bytes. from < 0 sends no from
// parameter. A header-only answer returns a nil index.
func fetchShip(url string, from int64) (*tlx.Index, store.ShipHeader, error) {
	if from >= 0 {
		url += fmt.Sprintf("?from=%d", from)
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, store.ShipHeader{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, store.ShipHeader{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	hdr, err := store.ReadShipHeader(resp.Body)
	if err != nil || hdr.Bytes == 0 {
		return nil, hdr, err
	}
	body := make([]byte, hdr.Bytes)
	if _, err := io.ReadFull(resp.Body, body); err != nil {
		return nil, hdr, err
	}
	ix, err := tlx.ReadIndexBytes(body, false)
	return ix, hdr, err
}

// TestSnapshotStreamEndpoint: the stream endpoint hands out a loadable
// index while inserts land concurrently; the final one must serialize to
// the store's index at the store's LSN.
func TestSnapshotStreamEndpoint(t *testing.T) {
	srv, st := newStoreServer(t, t.TempDir())
	stream := srv.URL + "/v1/admin/snapshot/stream"
	if code := postJSON(t, srv.URL+"/v1/insert", `{"option":[0.95,0.95]}`, nil); code != 200 {
		t.Fatal("seed insert failed")
	}
	if code := postJSON(t, srv.URL+"/v1/admin/snapshot", "", nil); code != 200 {
		t.Fatal("snapshot failed")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body := fmt.Sprintf(`{"option":[0.9%d,0.8%d]}`, i, 9-i)
			if code := postJSON(t, srv.URL+"/v1/insert", body, nil); code != 200 {
				t.Errorf("concurrent insert %d: status %d", i, code)
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		if _, _, err := fetchShip(stream, -1); err != nil {
			t.Fatalf("concurrent download %d: %v", i, err)
		}
	}
	wg.Wait()

	ix, hdr, err := fetchShip(stream, -1)
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Status().AppliedLSN; hdr.LSN != want {
		t.Errorf("final stream LSN %d, store applied %d", hdr.LSN, want)
	}
	var a, b bytes.Buffer
	if _, err := ix.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Index().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("shipped index serializes differently from the primary index")
	}
}

// TestSnapshotStreamTailAndGap covers the from= query: a from at the
// primary's LSN gets the header alone, and any other from — one the WAL
// has pruned past, or one beyond the primary's history — gets the whole
// index at the primary's LSN.
func TestSnapshotStreamTailAndGap(t *testing.T) {
	srv, st := newStoreServer(t, t.TempDir())
	stream := srv.URL + "/v1/admin/snapshot/stream"
	// Rotate and prune the WAL far enough that LSN 1 is gone.
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"option":[0.9%d,0.9%d]}`, i, i)
		if code := postJSON(t, srv.URL+"/v1/insert", body, nil); code != 200 {
			t.Fatal("insert failed")
		}
		if code := postJSON(t, srv.URL+"/v1/admin/snapshot", "", nil); code != 200 {
			t.Fatal("snapshot failed")
		}
	}
	applied := st.Status().AppliedLSN
	ix, hdr, err := fetchShip(stream, int64(applied))
	if err != nil || ix != nil || hdr.LSN != applied {
		t.Fatalf("caught-up stream: header %+v, index %v, err %v; want the header alone", hdr, ix != nil, err)
	}
	for _, from := range []int64{0, 99999} {
		ix, hdr, err := fetchShip(stream, from)
		if err != nil || ix == nil || hdr.LSN != applied {
			t.Errorf("from=%d: header %+v, index %v, err %v; want the whole index at %d", from, hdr, ix != nil, err, applied)
		}
	}
	// Malformed from is a 400.
	if code := getJSON(t, stream+"?from=x", nil); code != http.StatusBadRequest {
		t.Errorf("malformed from: status %d, want 400", code)
	}
	// The stream endpoint is absent in memory-only mode.
	mem := newServer(t)
	if code := getJSON(t, mem.URL+"/v1/admin/snapshot/stream", nil); code != http.StatusNotFound {
		t.Errorf("memory-mode stream: status %d, want 404", code)
	}
}
