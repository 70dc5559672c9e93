// Package phases implements execution-phase detection over section
// sequences, the Sherwood-style phase machinery the paper builds on: "we
// make the assumption that any given workload in general may embody
// multiple phases or classes of behavior" (§III). The paper localizes
// classification by cutting execution into equal-instruction sections;
// this package adds the complementary capability of finding the phase
// *boundaries* in a section stream, so reports can say "sections 120-340
// form one phase dominated by LCP stalls" instead of listing sections.
//
// The detector is an online centroid tracker: each section's counter
// vector (normalized per attribute) is compared with the running centroid
// of the current phase; when the distance exceeds a threshold for a few
// consecutive sections, a new phase begins. This mirrors the basic-block
// vector clustering of Sherwood et al. with counters in place of BBVs.
package phases

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Config tunes the detector.
type Config struct {
	// Threshold is the phase-change trigger in *noise units*: a section
	// is out-of-phase when its top-quartile feature deviation from the
	// phase centroid exceeds Threshold times the typical section-to-
	// section noise of those features.
	Threshold float64
	// MinRun is the number of consecutive out-of-phase sections required
	// to open a new phase (debouncing against single-section noise).
	MinRun int
	// MinPhaseLen merges phases shorter than this into their neighbor.
	MinPhaseLen int
}

// DefaultConfig returns thresholds that work well for Table I ratios.
func DefaultConfig() Config {
	return Config{Threshold: 5, MinRun: 3, MinPhaseLen: 5}
}

// Segment is one detected phase: a half-open section range [Start, End)
// and the centroid of its feature vectors.
type Segment struct {
	Start, End int
	Centroid   []float64 // indexed by feature position
}

// Len returns the segment's section count.
func (s Segment) Len() int { return s.End - s.Start }

// Detector carries normalization state.
type Detector struct {
	cfg      Config
	features []int
	scale    []float64 // per-feature noise scale
}

// sanitized clamps the config to usable values.
func (cfg Config) sanitized() Config {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultConfig().Threshold
	}
	if cfg.MinRun < 1 {
		cfg.MinRun = 1
	}
	if cfg.MinPhaseLen < 1 {
		cfg.MinPhaseLen = 1
	}
	return cfg
}

// NewDetector prepares a detector for the dataset's feature columns. Each
// feature is normalized by its *noise floor* — the median absolute
// difference between successive sections — so "how far did this counter
// move" is measured against how much it normally wobbles within a phase.
// (Range- or variance-based normalization fails here: for a feature that
// only carries noise, the range IS the noise, and for a feature carrying a
// phase shift, the shift inflates the variance.) The median is robust to
// the rare large jumps at true phase boundaries.
func NewDetector(d *dataset.Dataset, cfg Config) *Detector {
	features := d.FeatureIndices()
	n := d.Len()
	vectors := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := make([]float64, len(features))
		for j, f := range features {
			v[j] = d.Value(i, f)
		}
		vectors[i] = v
	}
	det := NewDetectorFromScales(NoiseScales(vectors), cfg)
	det.features = features
	return det
}

// NewDetectorFromScales builds a detector directly from per-feature noise
// scales, for streaming callers that have no dataset to calibrate against
// (the scales typically come from NoiseScales over a warmup prefix). The
// returned detector supports Stream/Feed; Segment additionally needs a
// dataset whose feature columns align positionally with the scales.
func NewDetectorFromScales(scale []float64, cfg Config) *Detector {
	return &Detector{cfg: cfg.sanitized(), scale: append([]float64(nil), scale...)}
}

// NoiseScales computes the per-feature noise floor of a vector sequence:
// the median absolute difference between successive vectors, with the
// same fallbacks as NewDetector (a sliver of the range for stepwise-
// constant features, 1 for truly constant ones).
func NoiseScales(vectors [][]float64) []float64 {
	if len(vectors) == 0 {
		return nil
	}
	k := len(vectors[0])
	scale := make([]float64, k)
	diffs := make([]float64, 0, len(vectors))
	for j := 0; j < k; j++ {
		diffs = diffs[:0]
		lo, hi := vectors[0][j], vectors[0][j]
		for r := 1; r < len(vectors); r++ {
			diffs = append(diffs, math.Abs(vectors[r][j]-vectors[r-1][j]))
			if vectors[r][j] < lo {
				lo = vectors[r][j]
			}
			if vectors[r][j] > hi {
				hi = vectors[r][j]
			}
		}
		noise := median(diffs)
		if noise <= 0 {
			// A constant (or stepwise-constant) column: fall back to a
			// sliver of its range so any movement at all registers.
			noise = (hi - lo) / 100
		}
		if noise <= 0 {
			noise = 1 // truly constant column: never triggers
		}
		scale[j] = noise
	}
	return scale
}

// median returns the median of v (0 for empty input); v is reordered.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

// Online is a fully self-contained streaming detector for callers that
// have no training dataset to calibrate against (e.g. a live counter
// monitor holding only a persisted model). It buffers the first
// Calibration raw vectors, computes the per-feature noise scales from
// that prefix exactly as NewDetector would, then replays the buffer
// through a Stream and continues incrementally.
type Online struct {
	cfg         Config
	calibration int
	buf         [][]float64
	stream      *Stream
}

// NewOnline creates a self-calibrating streaming detector. calibration
// is the number of leading sections used to estimate feature noise
// (values below 2 are raised to 2: noise estimation needs at least one
// successive difference).
func NewOnline(cfg Config, calibration int) *Online {
	if calibration < 2 {
		calibration = 2
	}
	return &Online{cfg: cfg.sanitized(), calibration: calibration}
}

// Feed consumes one raw feature vector and returns the start sections
// of any newly confirmed phases. During calibration nothing is
// reported; the call that completes calibration replays the whole
// buffered prefix, so it can report several boundaries at once. The
// vector is copied; callers may reuse raw.
func (o *Online) Feed(raw []float64) []int {
	if o.stream == nil {
		o.buf = append(o.buf, append([]float64(nil), raw...))
		if len(o.buf) < o.calibration {
			return nil
		}
		det := NewDetectorFromScales(NoiseScales(o.buf), o.cfg)
		o.stream = det.Stream()
		var starts []int
		for _, v := range o.buf {
			if seg, ok := o.stream.Feed(v); ok {
				starts = append(starts, seg.End)
			}
		}
		o.buf = nil
		return starts
	}
	if seg, ok := o.stream.Feed(raw); ok {
		return []int{seg.End}
	}
	return nil
}

// Phase returns the 1-based current phase index (1 during calibration).
func (o *Online) Phase() int {
	if o.stream == nil {
		return 1
	}
	return o.stream.Phase()
}

// distance is the mean of the top quartile of absolute normalized
// per-feature differences. A phase change typically moves a handful of
// the 20 counters while the rest stay put; averaging over all features
// would dilute the signal, while a plain max would fire on a single noisy
// counter. The top-quartile mean is sensitive to coordinated movement and
// robust to one outlier feature.
//
// diffs is scratch space of len(a). It is sorted ascending and summed
// from the end: the same values in the same order a descending sort
// would add (NaNs sort first ascending, so they come last from the end).
func distance(a, b, diffs []float64) float64 {
	for i := range a {
		diffs[i] = math.Abs(a[i] - b[i])
	}
	sort.Float64s(diffs)
	k := len(diffs) / 4
	if k < 1 {
		k = 1
	}
	s := 0.0
	for i := len(diffs) - 1; i >= len(diffs)-k; i-- {
		s += diffs[i]
	}
	return s / float64(k)
}

// Segment splits the dataset's section sequence into phases. Rows are
// assumed to be in execution order. It is the batch driver over the
// incremental Stream: every section is fed in order, the phases Feed
// closes are collected, and the phase still open at the end joins them
// before short phases merge, so batch and streaming detection share one
// code path (and one set of outputs).
func (det *Detector) Segment(d *dataset.Dataset) []Segment {
	if d.Len() == 0 {
		return nil
	}
	s := det.Stream()
	var segs []Segment
	raw := make([]float64, len(det.features))
	for i := 0; i < d.Len(); i++ {
		for j, f := range det.features {
			raw[j] = d.Value(i, f)
		}
		if seg, ok := s.Feed(raw); ok {
			segs = append(segs, seg)
		}
	}
	return mergeShort(append(segs, s.Flush()), det.cfg.MinPhaseLen)
}

// Stream is the incremental phase tracker behind Segment: sections are
// fed one at a time and phase-boundary events are reported as soon as
// the MinRun debounce confirms them, which is what an online monitor
// needs. It keeps only the open phase and a count of closed ones, so
// its memory stays constant however many boundaries a stream crosses;
// Feed hands each closed phase to the caller, and Segment is the one
// caller that keeps them.
type Stream struct {
	det        *Detector
	n          int // sections fed so far
	cur        Segment
	count      float64
	outOfPhase int
	recent     [][]float64 // ring of the last MinRun normalized vectors
	pos        int         // ring write position
	closed     int         // phases closed so far
	diffs      []float64   // distance's scratch, reused by every Feed
}

// Stream returns a fresh incremental tracker sharing the detector's
// normalization scales.
func (det *Detector) Stream() *Stream {
	return &Stream{
		det:    det,
		recent: make([][]float64, det.cfg.MinRun),
		diffs:  make([]float64, len(det.scale)),
	}
}

// Feed consumes the next section's raw feature vector (one value per
// scale, in calibration order). When the debounced tracker confirms a
// phase change it returns the phase that just closed and true; the new
// phase starts at the closed one's End. The report lags the true
// boundary by up to MinRun-1 sections (the debounce window). The vector
// is copied; callers may reuse raw, and own the returned segment.
func (s *Stream) Feed(raw []float64) (closed Segment, boundary bool) {
	if len(raw) != len(s.det.scale) {
		panic(fmt.Sprintf("phases: Feed vector has %d features, detector calibrated for %d",
			len(raw), len(s.det.scale)))
	}
	// Normalize into the ring slot this section overwrites; a slot is
	// allocated only the first time the ring wraps onto it.
	slot := &s.recent[s.pos%len(s.recent)]
	if *slot == nil {
		*slot = make([]float64, len(raw))
	}
	v := *slot
	for j := range raw {
		v[j] = raw[j] / s.det.scale[j]
	}
	i := s.n
	s.n++
	s.pos++
	if i == 0 {
		s.cur = Segment{Start: 0, Centroid: append([]float64(nil), v...)}
		s.count = 1
		return Segment{}, false
	}
	if distance(v, s.cur.Centroid, s.diffs) > s.det.cfg.Threshold {
		s.outOfPhase++
		if s.outOfPhase >= s.det.cfg.MinRun {
			// Close the phase before the deviating run began and rebuild
			// the centroid from the run's buffered vectors, oldest first.
			k := s.outOfPhase
			closed = s.cur
			closed.End = i - k + 1
			s.closed++
			s.cur = Segment{Start: closed.End, Centroid: append([]float64(nil), s.back(k)...)}
			s.count = 1
			for j := k - 1; j >= 1; j-- {
				addToCentroid(s.cur.Centroid, s.back(j), &s.count)
			}
			s.outOfPhase = 0
			return closed, true
		}
		return Segment{}, false
	}
	// A deviating run shorter than MinRun was an outlier burst: keep
	// those sections in the phase but leave them out of the centroid,
	// so one wild section cannot drag the reference point.
	s.outOfPhase = 0
	addToCentroid(s.cur.Centroid, v, &s.count)
	return Segment{}, false
}

// back returns the vector fed j sections ago (j = 1 is the latest), as
// the ring slot itself. j must be at most MinRun (the ring capacity),
// which holds for every caller: the deviating run is cut off the moment
// it reaches MinRun.
func (s *Stream) back(j int) []float64 {
	return s.recent[(s.pos-j)%len(s.recent)]
}

// Phase returns the 1-based index of the phase currently being tracked
// (0 before any section was fed).
func (s *Stream) Phase() int {
	if s.n == 0 {
		return 0
	}
	return s.closed + 1
}

// Flush returns the open phase as if it closed after the last section
// fed (the zero Segment before any section). The stream remains usable;
// the open phase's centroid is still being updated by Feed, so the
// caller gets a snapshot and flushing mid-stream stays safe.
func (s *Stream) Flush() Segment {
	if s.n == 0 {
		return Segment{}
	}
	return Segment{Start: s.cur.Start, End: s.n, Centroid: append([]float64(nil), s.cur.Centroid...)}
}

// addToCentroid folds v into the running mean.
func addToCentroid(centroid, v []float64, count *float64) {
	*count++
	for i := range centroid {
		centroid[i] += (v[i] - centroid[i]) / *count
	}
}

// mergeShort merges segments below the minimum length into their
// predecessor (or successor for the first segment).
func mergeShort(segs []Segment, minLen int) []Segment {
	if len(segs) <= 1 {
		return segs
	}
	out := segs[:0]
	for _, s := range segs {
		if len(out) > 0 && s.Len() < minLen {
			out[len(out)-1].End = s.End
			continue
		}
		if len(out) == 0 || s.Len() >= minLen {
			out = append(out, s)
			continue
		}
	}
	// A short first segment folds into the one after it.
	if len(out) > 1 && out[0].Len() < minLen {
		out[1].Start = out[0].Start
		out = out[1:]
	}
	return out
}

// Render formats the segmentation with per-phase mean target values.
func Render(segs []Segment, d *dataset.Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d phase(s) over %d sections:\n", len(segs), d.Len())
	for i, s := range segs {
		sum := 0.0
		for j := s.Start; j < s.End; j++ {
			sum += d.Target(j)
		}
		mean := 0.0
		if s.Len() > 0 {
			mean = sum / float64(s.Len())
		}
		fmt.Fprintf(&b, "  phase %d: sections %d..%d (%d), mean %s %.3f\n",
			i+1, s.Start, s.End-1, s.Len(), d.TargetName(), mean)
	}
	return b.String()
}
