package main

import (
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it, so one or two outliers can
// never set it alone.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples
// and whether it may be reported: at least minBeyond samples must lie
// strictly above it.
func percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	k := int(q*float64(len(s))+0.5) - 1
	k = max(0, min(k, len(s)-1))
	v := s[k]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, beyond >= minBeyond
}

// median returns the middle sample (mean of the two middle ones for an
// even count). It needs no percentile rule: half the samples lie beyond.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one traced interval. Spans of one net or request share a
// trace id; parent is the index of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so the untraced path pays one pointer
// test per span.
type tracer struct {
	t0    time.Time
	spans []span
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, trace, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, trace, parent, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// layerTimes sums, per span name, the total duration and the self time
// (duration minus the time its children cover; children of one span
// never overlap here, so their durations add), and counts the spans.
func (t *tracer) layerTimes() (total, self map[string]time.Duration, count map[string]int) {
	total, self, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	if t == nil {
		return
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		total[s.Name] += d
		self[s.Name] += d - child[i]
		count[s.Name]++
	}
	return
}
