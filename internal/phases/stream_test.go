package phases

import (
	"reflect"
	"testing"
)

// feedAll drives a fresh Stream with every row of the dataset and
// returns the closed phases plus the flushed open one, short phases
// merged, and every reported boundary.
func feedAll(det *Detector, rows [][]float64) ([]Segment, []int) {
	s := det.Stream()
	var segs []Segment
	var starts []int
	for _, r := range rows {
		if seg, ok := s.Feed(r); ok {
			segs = append(segs, seg)
			starts = append(starts, seg.End)
		}
	}
	return mergeShort(append(segs, s.Flush()), det.cfg.MinPhaseLen), starts
}

func rawRows(dlen int, det *Detector, value func(i, f int) float64) [][]float64 {
	rows := make([][]float64, dlen)
	for i := range rows {
		rows[i] = make([]float64, len(det.features))
		for j, f := range det.features {
			rows[i][j] = value(i, f)
		}
	}
	return rows
}

// TestStreamMatchesSegment pins the refactor's core guarantee: feeding a
// dataset section by section through Stream.Feed and flushing yields the
// same segments as the batch Segment call (which is itself implemented
// on the stream).
func TestStreamMatchesSegment(t *testing.T) {
	d := syntheticPhases([]int{40, 30, 50, 8, 45}, 11)
	det := NewDetector(d, DefaultConfig())
	want := det.Segment(d)
	rows := rawRows(d.Len(), det, func(i, f int) float64 { return d.Value(i, f) })
	got, starts := feedAll(det, rows)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream flush diverged from batch Segment:\n got %+v\nwant %+v", got, want)
	}
	// Every pre-merge boundary reported online must line up with a phase
	// opening: starts are strictly increasing and within range.
	for i, st := range starts {
		if st <= 0 || st >= d.Len() {
			t.Errorf("boundary %d out of range: %d", i, st)
		}
		if i > 0 && st <= starts[i-1] {
			t.Errorf("boundaries not increasing: %v", starts)
		}
	}
	if len(starts) == 0 {
		t.Error("multi-phase sequence reported no online boundaries")
	}
}

// TestStreamFlushMidway checks that Flush is a snapshot: flushing early,
// feeding more sections and flushing again reflects the new sections
// without corrupting earlier state.
func TestStreamFlushMidway(t *testing.T) {
	d := syntheticPhases([]int{40, 40}, 3)
	det := NewDetector(d, DefaultConfig())
	s := det.Stream()
	var segs []Segment
	raw := make([]float64, len(det.features))
	feed := func(i int) {
		for j, f := range det.features {
			raw[j] = d.Value(i, f)
		}
		if seg, ok := s.Feed(raw); ok {
			segs = append(segs, seg)
		}
	}
	for i := 0; i < 40; i++ {
		feed(i)
	}
	first := s.Flush()
	if len(segs) != 0 || first.Start != 0 || first.End != 40 {
		t.Fatalf("mid-stream flush: %+v after %d closed phases", first, len(segs))
	}
	centroid := append([]float64(nil), first.Centroid...)
	for i := 40; i < 80; i++ {
		feed(i)
	}
	second := mergeShort(append(segs, s.Flush()), det.cfg.MinPhaseLen)
	if want := det.Segment(d); !reflect.DeepEqual(second, want) {
		t.Fatalf("resumed flush diverged:\n got %+v\nwant %+v", second, want)
	}
	// The early flush's centroid snapshot must not have been mutated by
	// the later feeds (it aliased the then-open phase).
	if !reflect.DeepEqual(first.Centroid, centroid) || first.End != 40 {
		t.Errorf("early flush mutated by later feeds: %+v", first)
	}
}

// TestOnlineDetectorFindsBoundary runs the self-calibrating detector
// over a two-phase sequence with no dataset at all.
func TestOnlineDetectorFindsBoundary(t *testing.T) {
	d := syntheticPhases([]int{50, 50}, 7)
	o := NewOnline(DefaultConfig(), 20)
	var starts []int
	row := make([]float64, 2)
	for i := 0; i < d.Len(); i++ {
		row[0], row[1] = d.Value(i, 1), d.Value(i, 2)
		starts = append(starts, o.Feed(row)...)
	}
	if len(starts) != 1 {
		t.Fatalf("detected %d boundaries, want 1: %v", len(starts), starts)
	}
	if abs(starts[0]-50) > 4 {
		t.Errorf("boundary at %d, want ~50", starts[0])
	}
	if o.Phase() != 2 {
		t.Errorf("phase %d after one boundary, want 2", o.Phase())
	}
	if open := o.stream.Flush(); open.Start != starts[0] || open.End != d.Len() {
		t.Errorf("open phase %+v, want [%d, %d)", open, starts[0], d.Len())
	}
}

// TestOnlineReplayReportsCalibrationBoundary places the phase change
// inside the calibration window: the completing Feed must replay the
// buffer and still surface it.
func TestOnlineReplayReportsCalibrationBoundary(t *testing.T) {
	d := syntheticPhases([]int{30, 40}, 9)
	o := NewOnline(DefaultConfig(), 60) // boundary at 30 < calibration 60
	var starts []int
	row := make([]float64, 2)
	for i := 0; i < d.Len(); i++ {
		row[0], row[1] = d.Value(i, 1), d.Value(i, 2)
		starts = append(starts, o.Feed(row)...)
	}
	if len(starts) != 1 || abs(starts[0]-30) > 4 {
		t.Fatalf("replayed boundaries %v, want one near 30", starts)
	}
}

func TestFeedWidthMismatchPanics(t *testing.T) {
	det := NewDetectorFromScales([]float64{1, 1, 1}, DefaultConfig())
	s := det.Stream()
	defer func() {
		if recover() == nil {
			t.Error("Feed with wrong width did not panic")
		}
	}()
	s.Feed([]float64{1})
}
