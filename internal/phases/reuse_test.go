package phases

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// distanceSortReverse is the allocating descending-sort distance that
// distance replaced, kept as the differential oracle.
func distanceSortReverse(a, b []float64) float64 {
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = math.Abs(a[i] - b[i])
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(diffs)))
	k := len(diffs) / 4
	if k < 1 {
		k = 1
	}
	s := 0.0
	for i := 0; i < k; i++ {
		s += diffs[i]
	}
	return s / float64(k)
}

// TestDistanceMatchesSortReverse checks the scratch distance bit for bit
// against the oracle on random vectors of 1–25 features. Most values
// are continuous, so a change in summation order shows up in the
// rounding; the rest come from small sets that make ties, ±0, ±Inf and
// NaN (including Inf-Inf) common. Two NaN results only need to agree on
// being NaN: which NaN payload a sum carries depends on the order sort
// leaves equal NaNs in, which neither version defines.
func TestDistanceMatchesSortReverse(t *testing.T) {
	ties := []float64{0, math.Copysign(0, -1), 1, -1, 2.5}
	special := []float64{1e-300, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(16))
	value := func() float64 {
		switch r := rng.Intn(20); {
		case r < 12:
			return rng.NormFloat64() * 10
		case r < 18:
			return ties[rng.Intn(len(ties))]
		default:
			return special[rng.Intn(len(special))]
		}
	}
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(25)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = value(), value()
		}
		want := distanceSortReverse(a, b)
		got := distance(a, b, make([]float64, n))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("iter %d: distance %v (%#x), oracle %v (%#x)\na=%v\nb=%v",
				iter, got, math.Float64bits(got), want, math.Float64bits(want), a, b)
		}
	}
}

// TestStreamFeedAllocationFree: once every ring slot is filled, a
// boundary-free Feed allocates nothing.
func TestStreamFeedAllocationFree(t *testing.T) {
	det := NewDetectorFromScales([]float64{1, 2, 0.5}, DefaultConfig())
	s := det.Stream()
	raw := []float64{1, 2, 3}
	for i := 0; i < 2*det.cfg.MinRun; i++ {
		s.Feed(raw)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := s.Feed(raw); ok {
			t.Fatal("constant input reported a boundary")
		}
	})
	if allocs != 0 {
		t.Errorf("Feed allocates %v times per section, want 0", allocs)
	}
}

// TestRestoreStreamRejectsBadShape mutates one field of a live
// tracker's snapshot at a time. A restore that accepted any of them
// would panic in Feed, which reuses the ring slots and reads the
// deviating run back from them.
func TestRestoreStreamRejectsBadShape(t *testing.T) {
	cfg := DefaultConfig()
	d := syntheticPhases([]int{40, 30}, 5)
	det := NewDetector(d, cfg)
	s := det.Stream()
	row := make([]float64, 2)
	for i := 0; i < d.Len(); i++ {
		row[0], row[1] = d.Value(i, 1), d.Value(i, 2)
		s.Feed(row)
	}
	// A deviating run in progress, so the debounce-run checks have
	// buffered slots to look at.
	s.Feed([]float64{50, 50})
	if s.outOfPhase != 1 || s.closed == 0 {
		t.Fatalf("fixture: out-of-phase %d, %d closed phases; want 1 and some", s.outOfPhase, s.closed)
	}
	const width = 2
	if _, err := RestoreStream(cfg, s.State(), width); err != nil {
		t.Fatalf("unmutated snapshot: %v", err)
	}
	last := func(st *StreamState) int { return (st.Pos - 1) % len(st.Recent) }
	for _, tc := range []struct {
		name, want string
		mutate     func(st *StreamState)
	}{
		{"scale", "scale has 1", func(st *StreamState) { st.Scale = st.Scale[:1] }},
		{"centroid", "phase centroid has 3", func(st *StreamState) { st.Cur.Centroid = append(st.Cur.Centroid, 0) }},
		{"ring slot", "ring slot", func(st *StreamState) { st.Recent[0] = st.Recent[0][:1] }},
		{"closed phase", "closed phases over", func(st *StreamState) { st.Closed = st.N }},
		{"negative n", "negative", func(st *StreamState) { st.N = -1 }},
		{"negative pos", "negative", func(st *StreamState) { st.Pos = -3 }},
		{"run too long", "debounce run", func(st *StreamState) { st.OutOfPhase = len(st.Recent) }},
		{"negative run", "debounce run", func(st *StreamState) { st.OutOfPhase = -1 }},
		{"run slot empty", "is empty", func(st *StreamState) { st.Recent[last(st)] = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := s.State()
			tc.mutate(&st)
			_, err := RestoreStream(cfg, st, width)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one mentioning %q", err, tc.want)
			}
			if _, err := RestoreOnline(cfg, OnlineState{Calibration: 2, Stream: &st}, width); err == nil {
				t.Fatal("RestoreOnline accepted the snapshot")
			}
		})
	}

	bad := OnlineState{Calibration: 8, Buf: [][]float64{{1, 2}, {1}}}
	if _, err := RestoreOnline(cfg, bad, width); err == nil || !strings.Contains(err.Error(), "calibration vector 1") {
		t.Errorf("calibration buffer of the wrong width: error %v", err)
	}
}
