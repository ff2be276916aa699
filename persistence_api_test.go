package tlevelindex

import (
	"bytes"
	"testing"
)

// TestInsertIDStableAcrossSerialization: an index loaded from WriteTo bytes
// must hand later inserts the same external ids as the index it was saved
// from. The hotels dataset makes this sharp: hotel 4 is filtered out of the
// τ-skyband, so a loader that primed the id counter from the surviving pool
// (max OrigID + 1 = 4) instead of the serialized input cardinality would
// reuse dataset id 4 — the X3 format carries the cardinality to prevent
// exactly that. The durable store's WAL replay relies on this determinism.
func TestInsertIDStableAcrossSerialization(t *testing.T) {
	ix := buildHotels(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := ix.Insert([]float64{0.95, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	gotID, err := loaded.Insert([]float64{0.95, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if gotID != wantID || gotID != 5 {
		t.Fatalf("insert id after reload = %d, direct = %d, want 5", gotID, wantID)
	}
	// The two indexes must remain byte-identical after the insert — the
	// crash-recovery invariant in miniature.
	var a, b bytes.Buffer
	if _, err := ix.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialized states diverge after identical inserts")
	}
}
