package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the figure is a property of a handful of
// requests, not of the distribution.
const minBeyond = 10

// percentileLadder lists the percentiles the benchmark reports, highest
// first; supported walks down it.
var percentileLadder = []float64{0.999, 0.99, 0.9, 0.5}

// supported lowers q along the ladder until at least minBeyond of n samples
// lie beyond it. The median is always reported, whatever n is.
func supported(n int, q float64) float64 {
	for _, p := range percentileLadder {
		if p <= q && float64(n)*(1-p) > minBeyond-1e-9 {
			return p
		}
	}
	return 0.5
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (the "exclusive" method): the steadiness figure the benchmark's
// bounds are judged against.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}

// latencies summarizes one connection class's samples (nanoseconds).
type latencies struct {
	ns []float64
}

func (l *latencies) add(ns int64) { l.ns = append(l.ns, float64(ns)) }

// at returns the q-quantile in the given unit (ns per unit) together with
// the percentile actually reported after the minBeyond rule.
func (l *latencies) at(q, unit float64) (value, used float64) {
	sort.Float64s(l.ns)
	used = supported(len(l.ns), q)
	return quantile(l.ns, used) / unit, used
}
