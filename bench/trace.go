package main

import "time"

// span is one bracketed call into a layer. The traced pass replays each
// request against one layer at a time (over loopback, into the handler, into
// the public API), so a child's start is laid at its parent's start, or at
// the end of the sibling before it; what is measured is every duration.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
	// next[id] is where span id's next child starts; rootNext where the
	// next request's root does.
	next     []int64
	rootNext int64
}

// add records a span of the given duration under parent (-1 for a request's
// root) and returns its id.
func (t *tracer) add(parent, request int, name string, d time.Duration) int {
	at := &t.rootNext
	if parent >= 0 {
		at = &t.next[parent]
	}
	start := *at
	*at = start + d.Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request,
		Name: name, StartNS: start, EndNS: *at})
	t.next = append(t.next, start)
	return len(t.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of it its
// children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// nestedShare is the share of requests none of whose spans has negative self
// time: the replays of the children fit inside the replay of their parent.
func nestedShare(spans []span) float64 {
	self := selfTimes(spans)
	bad := map[int]bool{}
	all := map[int]bool{}
	for i, s := range spans {
		all[s.Request] = true
		if self[i] < 0 {
			bad[s.Request] = true
		}
	}
	if len(all) == 0 {
		return 1
	}
	return 1 - float64(len(bad))/float64(len(all))
}

// selfByName collects the self times of the spans called name.
func selfByName(spans []span, name string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[i]))
		}
	}
	return out
}
