package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1},
	} {
		if got := Percentile(append([]float64(nil), vals...), tc.q); got != tc.want {
			t.Errorf("Percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median of three = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("Median of four = %v, want the lower middle 2", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of an empty sample is not NaN")
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{ID: 1, Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []Span{{Start: 120, End: 150}}, 70},
		{"disjoint children", []Span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []Span{{Start: 110, End: 160}, {Start: 140, End: 180}}, 30},
		{"nested child inside another", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children clipped to the parent", []Span{{Start: 50, End: 120}, {Start: 190, End: 250}}, 70},
		{"child outside the parent", []Span{{Start: 10, End: 90}}, 100},
		{"unsorted children", []Span{{Start: 170, End: 180}, {Start: 100, End: 110}, {Start: 105, End: 130}}, 60},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: SelfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRecorderSpans(t *testing.T) {
	var off *Recorder
	if off.ID() != 0 || off.Spans() != nil {
		t.Fatal("nil recorder is not a no-op")
	}
	off.Add(1, 0, 0, "x", time.Now(), time.Now()) // must not panic

	rec := NewRecorder()
	req, root, child := rec.ID(), rec.ID(), rec.ID()
	t0 := rec.epoch.Add(time.Millisecond)
	rec.Add(child, root, req, "serve.handler", t0.Add(10*time.Microsecond), t0.Add(40*time.Microsecond))
	rec.Add(root, 0, req, "nethttp.roundtrip.single", t0, t0.Add(50*time.Microsecond))
	spans := rec.Spans()
	kids := ChildrenOf(spans)
	if len(kids[root]) != 1 || kids[root][0].ID != child {
		t.Fatalf("children of the root: %+v", kids[root])
	}
	var rootSpan Span
	for _, s := range spans {
		if s.ID == root {
			rootSpan = s
		}
	}
	if rootSpan.Start != int64(time.Millisecond) || rootSpan.Dur() != int64(50*time.Microsecond) {
		t.Fatalf("root span %+v", rootSpan)
	}
	if got := SelfTime(rootSpan, kids[root]); got != int64(20*time.Microsecond) {
		t.Errorf("round-trip self time %d, want 20µs", got)
	}

	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("%d span lines, want 2", len(lines))
	}
	var s Span
	if err := json.Unmarshal(lines[0], &s); err != nil || s.Name != "serve.handler" || s.Parent != root || s.Req != req {
		t.Errorf("first span line %s decodes to %+v (%v)", lines[0], s, err)
	}
}

func TestWindowMetricsAreSliceMedians(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	var ops []sample
	// Three one-second slices. Light latencies are 1ms, 2ms and 9ms per
	// slice; the middle slice is slow for heavy requests only.
	for s, light := range []int{1, 2, 9} {
		for i := 0; i < 10; i++ {
			at := ms(s*1000 + i*10)
			ops = append(ops, sample{at: at, dur: ms(light), items: 1})
		}
		heavy := 5
		if s == 1 {
			heavy = 50
		}
		ops = append(ops, sample{at: ms(s*1000 + 500), dur: ms(heavy), heavy: true, items: 4})
	}
	got := windowMetrics(3*time.Second, ops)
	want := map[string]float64{
		"items_per_s":  14,
		"light_p50_us": 2000,
		"light_p90_us": 2000,
		"heavy_p50_us": 5000,
		"heavy_p90_us": 5000,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestLiveHeapIsMedianOfSlicePeaks(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	mem := []memSample{{ms(10), 1 << 20}, {ms(900), 4 << 20}, {ms(1500), 3 << 20}, {ms(2500), 2 << 20}}
	if got := liveHeapMB(3*time.Second, mem); got != 3 {
		t.Errorf("liveHeapMB = %v, want the median of slice peaks 4, 3, 2", got)
	}
}
