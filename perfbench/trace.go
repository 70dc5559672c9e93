package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call recorded by a traced run. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Start and End are nanoseconds since the recorder's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced mode: every method is a no-op, so traced and untraced
// runs execute the same code.
type Recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts an empty trace.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// ID returns a fresh span (or request) ID; 0 when r is nil.
func (r *Recorder) ID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// Add records a finished span.
func (r *Recorder) Add(id, parent, req uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteNDJSON writes one JSON span per line.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ChildrenOf indexes spans by parent ID.
func ChildrenOf(spans []Span) map[uint64][]Span {
	out := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// SelfTime is the part of parent's interval that none of its children
// cover: children are clipped to the parent and overlapping children
// (parallel work) are counted once.
func SelfTime(parent Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.Dur() - covered
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of values:
// the smallest value with at least q of the sample at or below it. It
// sorts values in place and returns NaN for an empty sample.
func Percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sort.Float64s(values)
	rank := int(math.Ceil(q * float64(len(values))))
	if rank < 1 {
		rank = 1
	}
	return values[rank-1]
}

// Median is Percentile(values, 0.5) on a copy of values.
func Median(values []float64) float64 {
	return Percentile(append([]float64(nil), values...), 0.5)
}
