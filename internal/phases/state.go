package phases

import "fmt"

// Serializable monitor state, for the serve layer's session
// snapshot/restore (drain a live monitor on one replica, restore it on
// another). Every field is a plain value that survives a JSON round
// trip bit-exactly — Go marshals float64 in shortest-round-trip form —
// so a restored detector continues the section stream exactly where
// the drained one stopped: same phase numbering, same centroid, same
// debounce counter.

// StreamState is the full state of an incremental phase tracker plus
// the normalization scales of the detector behind it.
type StreamState struct {
	// Scale is the detector's per-feature noise normalization.
	Scale []float64 `json:"scale"`
	// N is the number of sections fed so far.
	N int `json:"n"`
	// Cur is the open phase (End is unset until it closes).
	Cur Segment `json:"cur"`
	// Count is the open phase's centroid weight.
	Count float64 `json:"count"`
	// OutOfPhase is the current deviating-run length (debounce state).
	OutOfPhase int `json:"out_of_phase"`
	// Recent is the ring of the last MinRun normalized vectors, in ring
	// storage order, with Pos the next write position. Unfilled slots
	// are null.
	Recent [][]float64 `json:"recent"`
	Pos    int         `json:"pos"`
	// Closed counts the closed phases.
	Closed int `json:"closed"`
	// Segs is the closed-phase list that snapshots carried before
	// Closed replaced it; only its length is restored, and State never
	// writes it.
	Segs []Segment `json:"segs,omitempty"`
}

// State snapshots the tracker. The snapshot shares no mutable memory
// with the stream: every slice is copied.
func (s *Stream) State() StreamState {
	return StreamState{
		Scale:      append([]float64(nil), s.det.scale...),
		N:          s.n,
		Cur:        copySegment(s.cur),
		Count:      s.count,
		OutOfPhase: s.outOfPhase,
		Recent:     copyVectors(s.recent),
		Pos:        s.pos,
		Closed:     s.closed,
	}
}

// RestoreStream rebuilds a tracker over width features from a
// snapshot under cfg. The config's MinRun must match the snapshot's
// debounce ring length — restoring under a different debounce window
// would silently change boundary detection, so it is an error instead.
// So is a snapshot no tracker could have produced: a vector of another
// width, a negative count or position, more closed phases than sections,
// or a debounce run longer than the ring or missing its buffered
// vectors. Feed reuses the ring slots and would otherwise panic on the
// first section after the restore. A snapshot that lists closed phases
// in Segs instead of counting them restores with Closed = len(Segs).
func RestoreStream(cfg Config, st StreamState, width int) (*Stream, error) {
	det := NewDetectorFromScales(st.Scale, cfg)
	if len(st.Recent) != det.cfg.MinRun {
		return nil, fmt.Errorf("phases: snapshot debounce ring has %d slots, config MinRun is %d",
			len(st.Recent), det.cfg.MinRun)
	}
	if err := checkStream(st, width, det.cfg.MinRun); err != nil {
		return nil, err
	}
	s := det.Stream()
	s.n = st.N
	s.cur = copySegment(st.Cur)
	s.count = st.Count
	s.outOfPhase = st.OutOfPhase
	s.recent = copyVectors(st.Recent)
	s.pos = st.Pos
	s.closed = st.closedCount()
	return s, nil
}

// closedCount is the snapshot's closed-phase count, from Segs when an older
// snapshot listed them.
func (st StreamState) closedCount() int {
	if len(st.Segs) > 0 {
		return len(st.Segs)
	}
	return st.Closed
}

// checkStream validates a snapshot's shape against the feature width
// and a ring of minRun slots.
func checkStream(st StreamState, width, minRun int) error {
	if len(st.Scale) != width {
		return fmt.Errorf("phases: snapshot scale has %d features, want %d", len(st.Scale), width)
	}
	if st.N < 0 || st.Pos < 0 {
		return fmt.Errorf("phases: snapshot has negative section count %d or ring position %d", st.N, st.Pos)
	}
	// An open phase exists once any section was fed.
	if st.N > 0 && len(st.Cur.Centroid) != width {
		return fmt.Errorf("phases: snapshot phase centroid has %d features, want %d", len(st.Cur.Centroid), width)
	}
	for i, v := range st.Recent {
		if v != nil && len(v) != width {
			return fmt.Errorf("phases: snapshot ring slot %d has %d features, want %d", i, len(v), width)
		}
	}
	if len(st.Segs) > 0 && st.Closed != 0 && st.Closed != len(st.Segs) {
		return fmt.Errorf("phases: snapshot counts %d closed phases but lists %d", st.Closed, len(st.Segs))
	}
	// Every phase holds at least one section, and the open one exists
	// once any section was fed.
	if c := st.closedCount(); c < 0 || (c > 0 && c >= st.N) {
		return fmt.Errorf("phases: snapshot has %d closed phases over %d sections", c, st.N)
	}
	// The deviating run's vectors are the ring slots just before Pos;
	// the run that confirms a boundary reads them back.
	if st.OutOfPhase < 0 || st.OutOfPhase >= minRun || st.OutOfPhase > st.Pos {
		return fmt.Errorf("phases: snapshot debounce run %d does not fit a %d-slot ring at position %d",
			st.OutOfPhase, minRun, st.Pos)
	}
	for j := 1; j <= st.OutOfPhase; j++ {
		if i := (st.Pos - j) % minRun; st.Recent[i] == nil {
			return fmt.Errorf("phases: snapshot ring slot %d of the debounce run is empty", i)
		}
	}
	return nil
}

// OnlineState is the full state of a self-calibrating detector: either
// still buffering its calibration prefix (Buf set, Stream nil) or
// tracking (Stream set).
type OnlineState struct {
	Calibration int          `json:"calibration"`
	Buf         [][]float64  `json:"buf,omitempty"`
	Stream      *StreamState `json:"stream,omitempty"`
}

// State snapshots the detector.
func (o *Online) State() OnlineState {
	st := OnlineState{Calibration: o.calibration}
	if o.stream != nil {
		ss := o.stream.State()
		st.Stream = &ss
		return st
	}
	st.Buf = copyVectors(o.buf)
	return st
}

// RestoreOnline rebuilds a self-calibrating detector over width
// features from a snapshot under cfg (which must carry the same
// thresholds the drained detector ran with for behavior to continue
// unchanged). Calibration vectors of another width are an error, as
// RestoreStream's shape checks are.
func RestoreOnline(cfg Config, st OnlineState, width int) (*Online, error) {
	o := NewOnline(cfg, st.Calibration)
	if st.Stream == nil {
		for i, v := range st.Buf {
			if len(v) != width {
				return nil, fmt.Errorf("phases: snapshot calibration vector %d has %d features, want %d", i, len(v), width)
			}
		}
		o.buf = copyVectors(st.Buf)
		return o, nil
	}
	s, err := RestoreStream(cfg, *st.Stream, width)
	if err != nil {
		return nil, err
	}
	o.stream = s
	return o, nil
}

func copySegment(s Segment) Segment {
	s.Centroid = append([]float64(nil), s.Centroid...)
	return s
}

func copyVectors(v [][]float64) [][]float64 {
	if v == nil {
		return nil
	}
	out := make([][]float64, len(v))
	for i, row := range v {
		if row != nil {
			out[i] = append([]float64(nil), row...)
		}
	}
	return out
}
