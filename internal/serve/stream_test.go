package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/refute"
	"repro/internal/stream"
)

// streamTrace renders an NDJSON trace with the same generative law as
// perfData: one phase change at boundary (the counter regime flips) and
// an unexplained CPI shift from shiftAt on (a performance regression the
// model cannot account for).
func streamTrace(total, boundary, shiftAt int, shift float64, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := 0; i < total; i++ {
		var l1, l2, dt float64
		if i < boundary {
			l1 = 0.012 + 0.0015*rng.Float64()
			l2 = 0.0008 + 0.0002*rng.Float64()
			dt = 0.0001 + 0.00005*rng.Float64()
		} else {
			l1 = 0.002 + 0.0008*rng.Float64()
			l2 = 0.004 + 0.0003*rng.Float64()
			dt = 0.0006 + 0.0001*rng.Float64()
		}
		cpi := 0.6 + 7*l1
		if l2 > 0.002 {
			cpi = 1.1 + 90*l2 + 40*dt
		}
		cpi += 0.01 * rng.NormFloat64()
		if i >= shiftAt {
			cpi += shift
		}
		s := stream.Sample{Bench: "trace", Section: i,
			Events: map[string]float64{"L1IM": l1, "L2M": l2, "DtlbLdM": dt}, CPI: &cpi}
		_ = enc.Encode(&s)
	}
	return b.String()
}

func streamConfig() Config {
	cfg := DefaultConfig()
	cfg.CacheSize = 0
	// Wider alarm threshold than the default so residual noise over a
	// short trace cannot false-fire, while a +0.5 shift still trips in a
	// couple of sections.
	cfg.Stream.PH.Lambda = 0.5
	return cfg
}

// postNDJSON posts a raw NDJSON body to the stream endpoint.
func postNDJSON(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-ndjson")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// splitLines cuts an NDJSON document after n lines.
func splitLines(doc string, n int) (string, string) {
	lines := strings.SplitAfter(strings.TrimSuffix(doc, "\n"), "\n")
	return strings.Join(lines[:n], ""), strings.Join(lines[n:], "")
}

// TestStreamEndToEnd is the subsystem's serve-side acceptance test: a
// synthetic two-phase trace with an injected CPI regression goes through
// POST /v1/stream in two chunks (monitor state must persist across
// requests), and the phase boundary and drift alarm must land at the
// right sections.
func TestStreamEndToEnd(t *testing.T) {
	const (
		total    = 130
		boundary = 60
		shiftAt  = 90
	)
	trace := streamTrace(total, boundary, shiftAt, 0.5, 42)
	first, second := splitLines(trace, 70)

	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()
	var body bytes.Buffer
	for _, chunk := range []string{first, second} {
		rec := postNDJSON(h, "/v1/stream?model=cpi", chunk)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		body.Write(rec.Body.Bytes())
	}

	var (
		phaseStarts []int
		firstDrift  = -1
		driftDir    string
		summaries   []stream.Stats
	)
	dec := json.NewDecoder(bytes.NewReader(body.Bytes()))
	for dec.More() {
		var ev struct {
			Type       string       `json:"type"`
			Section    int          `json:"section"`
			PhaseStart int          `json:"phase_start"`
			Direction  string       `json:"direction"`
			Stats      stream.Stats `json:"stats"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "phase":
			phaseStarts = append(phaseStarts, ev.PhaseStart)
		case "drift":
			if firstDrift < 0 {
				firstDrift, driftDir = ev.Section, ev.Direction
			}
		case "summary":
			summaries = append(summaries, ev.Stats)
		}
	}
	if len(phaseStarts) != 1 {
		t.Fatalf("phase boundaries %v, want exactly one", phaseStarts)
	}
	if got := phaseStarts[0]; got < boundary-4 || got > boundary+4 {
		t.Errorf("phase boundary at %d, want near %d", got, boundary)
	}
	if firstDrift < shiftAt || firstDrift > shiftAt+14 {
		t.Errorf("first drift alarm at section %d, want shortly after %d", firstDrift, shiftAt)
	}
	if driftDir != "up" {
		t.Errorf("drift direction %q, want up", driftDir)
	}
	if len(summaries) != 2 {
		t.Fatalf("%d summary lines, want 2 (one per request)", len(summaries))
	}
	final := summaries[1]
	if final.Scored != total {
		t.Errorf("scored %d sections, want %d", final.Scored, total)
	}
	if final.Accepted != final.Scored {
		t.Errorf("accepted %d, scored %d: every accepted sample is scored on arrival", final.Accepted, final.Scored)
	}
	if final.DriftAlarms < 1 || final.PhaseBoundaries != 1 {
		t.Errorf("final stats %+v", final)
	}
}

// TestStreamMetrics checks the /metrics stream counters after traffic.
func TestStreamMetrics(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()
	trace := streamTrace(130, 60, 90, 0.5, 42)
	if rec := postNDJSON(h, "/v1/stream?model=cpi", trace); rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	rec := get(h, "/v1/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	st := snap.Streams
	if st.Sessions != 1 {
		t.Errorf("sessions %d, want 1", st.Sessions)
	}
	if st.Scored != 130 || st.Accepted != st.Scored {
		t.Errorf("accepted %d scored %d, want 130 both", st.Accepted, st.Scored)
	}
	if st.PhaseBoundaries != 1 || st.DriftAlarms < 1 {
		t.Errorf("boundaries %d alarms %d, want 1 and >=1", st.PhaseBoundaries, st.DriftAlarms)
	}
	if want := uint64(130 / refute.WindowSections); st.Windows != want {
		t.Errorf("windows %d, want %d (one per %d sections)", st.Windows, want, refute.WindowSections)
	}
}

// TestStreamErrors exercises every rejection path and verifies a
// rejected batch leaves the monitor state untouched.
func TestStreamErrors(t *testing.T) {
	cfg := streamConfig()
	cfg.MaxBatch = 8
	s, _, _ := newTestServer(t, cfg)
	h := s.Handler()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"missing model", "/v1/stream", `{"events":{"L2M":1}}`, http.StatusBadRequest},
		{"unknown model", "/v1/stream?model=nope", `{"events":{"L2M":1}}`, http.StatusNotFound},
		{"empty body", "/v1/stream?model=cpi", "", http.StatusBadRequest},
		{"malformed line", "/v1/stream?model=cpi", "{\"events\":{\"L2M\":1}}\nnot json\n", http.StatusBadRequest},
		{"no events", "/v1/stream?model=cpi", `{"bench":"x"}`, http.StatusBadRequest},
		{"unknown event", "/v1/stream?model=cpi", `{"events":{"NoSuchEvent":1}}`, http.StatusBadRequest},
		{"target as event", "/v1/stream?model=cpi", `{"events":{"CPI":1}}`, http.StatusBadRequest},
		{"oversized batch", "/v1/stream?model=cpi", strings.Repeat("{\"events\":{\"L2M\":0.001}}\n", 9), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if rec := postNDJSON(h, tc.path, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}

	// A malformed-line rejection must name the offending line.
	rec := postNDJSON(h, "/v1/stream?model=cpi", "{\"events\":{\"L2M\":1}}\nnot json\n")
	if !strings.Contains(rec.Body.String(), "line 2") {
		t.Errorf("malformed-line error does not name line 2: %s", rec.Body)
	}

	// A batch that fails validation mid-way must not have advanced the
	// monitors: the all-or-nothing check runs before any ingestion.
	bad := "{\"events\":{\"L2M\":0.001}}\n{\"events\":{\"NoSuchEvent\":1}}\n"
	if rec := postNDJSON(h, "/v1/stream?model=cpi", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("mixed batch status %d, want 400", rec.Code)
	}
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Scored != 0 || snap.Streams.Accepted != 0 {
		t.Errorf("rejected batches advanced monitor state: %+v", snap.Streams)
	}
}

// TestMethodNotAllowed asserts every endpoint rejects wrong methods with
// 405, a correct Allow header and the API's JSON error shape.
func TestMethodNotAllowed(t *testing.T) {
	s, _, _ := newTestServer(t, DefaultConfig())
	h := s.Handler()
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/predict", "POST"},
		{http.MethodDelete, "/v1/predict", "POST"},
		{http.MethodGet, "/v1/classify", "POST"},
		{http.MethodGet, "/v1/stream", "POST"},
		{http.MethodPost, "/v1/sessions", "GET, HEAD"},
		{http.MethodGet, "/v1/sessions/drain", "POST"},
		{http.MethodGet, "/v1/sessions/restore", "POST"},
		{http.MethodPost, "/v1/models", "GET, HEAD"},
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodPut, "/metrics", "GET, HEAD"},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader("{}"))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
			continue
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		var body errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil ||
			body.Error.Code != ErrCodeMethodNotAllowed || body.Error.Message == "" {
			t.Errorf("%s %s: bad 405 envelope: %s", tc.method, tc.path, rec.Body)
		}
	}
	// HEAD on a GET route is allowed, not 405.
	req := httptest.NewRequest(http.MethodHead, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("HEAD /healthz: status %d, want 200", rec.Code)
	}
}

// TestStreamResponseFlushesIncrementally pins incremental delivery on
// /v1/stream: a buffering wrapper (http.TimeoutHandler's writer, say)
// does not implement http.Flusher, so a Flush reaching the recorder
// proves the route streams its NDJSON directly to the connection.
func TestStreamResponseFlushesIncrementally(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()
	rec := postNDJSON(h, "/v1/stream?model=cpi", streamTrace(40, 20, 100, 0, 7))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if !rec.Flushed {
		t.Error("stream response was never flushed: is /v1/stream wrapped in a buffering handler?")
	}
}

// TestStreamSessionsIndependent verifies two models monitor separately.
func TestStreamSessionsIndependent(t *testing.T) {
	d := perfData(1200, 5)
	tree := buildTree(t, d)
	reg := NewRegistry()
	for _, name := range []string{"a", "b"} {
		if err := reg.Register(name, "v1", tree, ""); err != nil {
			t.Fatal(err)
		}
	}
	h := New(reg, streamConfig()).Handler()
	trace := streamTrace(40, 20, 100, 0, 7)
	for _, name := range []string{"a", "b"} {
		if rec := postNDJSON(h, "/v1/stream?model="+name, trace); rec.Code != http.StatusOK {
			t.Fatalf("model %s: status %d: %s", name, rec.Code, rec.Body)
		}
	}
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Sessions != 2 {
		t.Errorf("sessions %d, want 2", snap.Streams.Sessions)
	}
	if snap.Streams.Scored != 80 {
		t.Errorf("scored %d, want 80", snap.Streams.Scored)
	}
}
