package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"tlevelindex/internal/obs"
)

// Flight-recorder and hot-cell introspection endpoints. Both are read-only
// snapshots over bounded in-memory state, so they are registered in every
// mode (memory, store, follower) and are safe to curl under load.

// traceBody is one retained trace in the GET /v1/admin/trace response.
type traceBody struct {
	TraceID  string          `json:"traceId"`
	Endpoint string          `json:"endpoint"`
	Status   int             `json:"status"`
	Slow     bool            `json:"slow"`
	Start    time.Time       `json:"start"`
	DurMs    float64         `json:"durMs"`
	Queries  []obs.QueryMeta `json:"queries,omitempty"`
	Tree     *obs.SpanNode   `json:"tree"`
}

// handleTrace is GET /v1/admin/trace?min_ms=&family=&n=: the flight
// recorder's retained traces, newest first, each with its query annotations
// and assembled span tree. min_ms filters to requests at least that slow,
// family to traces touching that query family, n bounds the count
// (default 50). A disabled recorder answers an empty list.
func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	minDur := time.Duration(0)
	if s := r.URL.Query().Get("min_ms"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 {
			badRequest(w, "bad number parameter %q", "min_ms")
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	n, err := parseIntParam(r, "n", 50)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	traces := h.rec.Snapshot(minDur, r.URL.Query().Get("family"), n)
	body := struct {
		Traces       []traceBody `json:"traces"`
		SlowMs       float64     `json:"slowThresholdMs"`
		DroppedSpans uint64      `json:"droppedSpans"`
	}{Traces: make([]traceBody, 0, len(traces))}
	if h.rec != nil {
		body.SlowMs = float64(h.rec.SlowThreshold()) / float64(time.Millisecond)
		body.DroppedSpans = h.rec.DroppedSpans()
	}
	for _, tr := range traces {
		body.Traces = append(body.Traces, traceBody{
			TraceID:  tr.ID.String(),
			Endpoint: tr.Endpoint,
			Status:   tr.Status,
			Slow:     tr.Slow,
			Start:    tr.Root.Start,
			DurMs:    float64(tr.Root.Duration) / float64(time.Millisecond),
			Queries:  tr.Queries,
			Tree:     tr.Tree(),
		})
	}
	writeJSON(w, http.StatusOK, body)
}

// hotCellBody is one cell's sampled traffic in the hotcells response.
type hotCellBody struct {
	Cell  string `json:"cell"` // hex cell-chain key, matching trace annotations
	Total uint64 `json:"total"`
}

// handleHotCells is GET /v1/admin/hotcells?n=: the cell chains top-k queries
// land in most, by sampled traffic, hottest first. Counts are in sampled
// observations (multiply by sampleEvery for a traffic estimate).
func (h *Handler) handleHotCells(w http.ResponseWriter, r *http.Request) {
	n, err := parseIntParam(r, "n", 20)
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	stats := h.hot.Top(n)
	cells := make([]hotCellBody, 0, len(stats))
	for _, s := range stats {
		cells = append(cells, hotCellBody{Cell: fmt.Sprintf("%016x", s.Cell), Total: s.Total})
	}
	writeJSON(w, http.StatusOK, struct {
		SampleEvery int           `json:"sampleEvery"`
		Cells       []hotCellBody `json:"cells"`
	}{h.hot.SampleEvery(), cells})
}

// parseIntParam reads an optional integer query parameter.
func parseIntParam(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad integer parameter %q", name)
	}
	return v, nil
}
