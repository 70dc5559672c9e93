package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/phases"
	"repro/internal/refute"
	"repro/internal/stream"
)

// fakeClock is a manually advanced clock for exact session-TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestStreamSessionQueryParam verifies ?session= keys independent
// timelines through one model: each session scores the full trace from
// section zero, and both show up in the metrics snapshot.
func TestStreamSessionQueryParam(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()
	trace := streamTrace(40, 20, 100, 0, 7)

	var bodies [][]byte
	for _, sess := range []string{"alpha", "beta"} {
		rec := postNDJSON(h, "/v1/stream?model=cpi&session="+sess, trace)
		if rec.Code != 200 {
			t.Fatalf("session %s: status %d: %s", sess, rec.Code, rec.Body)
		}
		bodies = append(bodies, rec.Body.Bytes())
	}
	// Two timelines over the same model and trace must diverge only in
	// the summary's echoed session id.
	a := bytes.ReplaceAll(bodies[0], []byte(`"session":"alpha"`), []byte(`"session":"X"`))
	b := bytes.ReplaceAll(bodies[1], []byte(`"session":"beta"`), []byte(`"session":"X"`))
	if !bytes.Equal(a, b) {
		t.Error("same trace through two sessions produced different monitoring output")
	}

	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Sessions != 2 || snap.Streams.Scored != 80 {
		t.Errorf("sessions %d scored %d, want 2 and 80", snap.Streams.Sessions, snap.Streams.Scored)
	}
	if snap.Streams.Misses != 2 {
		t.Errorf("session table misses %d, want 2 (one per created session)", snap.Streams.Misses)
	}
}

// TestStreamConcurrentSessionsIndependent is the regression test for
// the lock-held-across-response-write stall: with one session per model
// (the old scheme), a stalled producer of a model blocked every other
// producer of that model. Holding session a's lock — exactly what a
// stuck ingest does — must not stop a request for session b of the
// same model.
func TestStreamConcurrentSessionsIndependent(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()
	trace := streamTrace(40, 20, 100, 0, 7)

	if rec := postNDJSON(h, "/v1/stream?model=cpi&session=a", trace); rec.Code != 200 {
		t.Fatalf("seed request: status %d: %s", rec.Code, rec.Body)
	}
	sess, ok := s.streams.lookup("cpi@v1", "a")
	if !ok {
		t.Fatal("session a not in the table")
	}
	sess.mu.Lock() // a stalled producer of session a
	defer sess.mu.Unlock()

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postNDJSON(h, "/v1/stream?model=cpi&session=b", trace) }()
	select {
	case rec := <-done:
		if rec.Code != 200 {
			t.Fatalf("session b: status %d: %s", rec.Code, rec.Body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session b blocked behind a stalled session a of the same model")
	}
}

// TestStreamSessionTTLEviction drives the injectable clock past the TTL
// and checks that the idle session is evicted, counted, and replaced by
// a fresh timeline on the next request.
func TestStreamSessionTTLEviction(t *testing.T) {
	clk := newFakeClock()
	cfg := streamConfig()
	cfg.SessionTTL = time.Minute
	cfg.Clock = clk.Now
	s, _, _ := newTestServer(t, cfg)
	h := s.Handler()
	trace := streamTrace(40, 20, 100, 0, 7)

	if rec := postNDJSON(h, "/v1/stream?model=cpi", trace); rec.Code != 200 {
		t.Fatalf("first request: status %d", rec.Code)
	}
	clk.Advance(2 * time.Minute)
	rec := postNDJSON(h, "/v1/stream?model=cpi", trace)
	if rec.Code != 200 {
		t.Fatalf("post-TTL request: status %d", rec.Code)
	}
	// The replacement session starts a fresh timeline: its summary must
	// report 40 scored sections, not 80 accumulated ones.
	var sum struct {
		Stats stream.Stats `json:"stats"`
	}
	lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Scored != 40 {
		t.Errorf("scored %d after eviction, want 40 (fresh session)", sum.Stats.Scored)
	}

	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.Sessions != 1 {
		t.Errorf("sessions %d, want 1", snap.Streams.Sessions)
	}
	if snap.Streams.Evictions < 1 {
		t.Errorf("evictions %d, want >= 1", snap.Streams.Evictions)
	}
}

// TestIdleServerDropsExpiredSessions: once a session's TTL passes on a
// server that gets no more /v1/stream traffic, the session is neither
// listed by /v1/sessions nor counted in /metrics, and its eviction is
// counted once.
func TestIdleServerDropsExpiredSessions(t *testing.T) {
	clk := newFakeClock()
	cfg := streamConfig()
	cfg.SessionTTL = time.Minute
	cfg.Clock = clk.Now
	s, _, _ := newTestServer(t, cfg)
	h := s.Handler()
	if rec := postNDJSON(h, "/v1/stream?model=cpi&session=a", streamTrace(40, 20, 100, 0, 7)); rec.Code != 200 {
		t.Fatalf("stream: status %d: %s", rec.Code, rec.Body)
	}
	if rec := get(h, "/v1/sessions"); !strings.Contains(rec.Body.String(), `"session":"a"`) {
		t.Fatalf("live session not listed: %s", rec.Body)
	}

	clk.Advance(2 * time.Minute)
	metrics := get(h, "/metrics").Body.String()
	for _, line := range []string{"serve_stream_sessions 0\n", "serve_stream_session_evictions_total 1\n"} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if rec := get(h, "/v1/sessions"); !strings.Contains(rec.Body.String(), `"sessions":[]`) {
		t.Errorf("expired session still listed: %s", rec.Body)
	}
	if _, _, _, evictions := tableCounts(s.streams); evictions != 1 {
		t.Errorf("evictions %d, want 1", evictions)
	}
}

// TestSessionsDrainRestoreRoundTrip is the replica-handoff acceptance
// test: drain live sessions out of one server, restore them into a
// fresh one, and (1) the restored listing's per-session Stats are
// byte-identical to the pre-drain listing, (2) continuing a timeline on
// the new server emits exactly what an uninterrupted server would.
func TestSessionsDrainRestoreRoundTrip(t *testing.T) {
	cfg := streamConfig()
	trace := streamTrace(130, 60, 90, 0.5, 42)
	first, second := splitLines(trace, 70)

	sA, _, _ := newTestServer(t, cfg)
	hA := sA.Handler()
	for _, sess := range []string{"", "x"} {
		if rec := postNDJSON(hA, "/v1/stream?model=cpi&session="+sess, first); rec.Code != 200 {
			t.Fatalf("session %q: status %d: %s", sess, rec.Code, rec.Body)
		}
	}
	listA := get(hA, "/v1/sessions")
	if listA.Code != 200 {
		t.Fatalf("sessions listing status %d", listA.Code)
	}

	drain := post(hA, "/v1/sessions/drain", "")
	if drain.Code != 200 {
		t.Fatalf("drain status %d: %s", drain.Code, drain.Body)
	}
	if rec := get(hA, "/v1/sessions"); !bytes.Contains(rec.Body.Bytes(), []byte(`"sessions":[]`)) {
		t.Errorf("sessions remain after drain: %s", rec.Body)
	}

	sB, _, _ := newTestServer(t, cfg)
	hB := sB.Handler()
	restore := post(hB, "/v1/sessions/restore", drain.Body.String())
	if restore.Code != 200 {
		t.Fatalf("restore status %d: %s", restore.Code, restore.Body)
	}
	var res struct {
		Restored int `json:"restored"`
	}
	if err := json.Unmarshal(restore.Body.Bytes(), &res); err != nil || res.Restored != 2 {
		t.Fatalf("restored %d sessions (%v), want 2", res.Restored, err)
	}

	// The restored listing — including every monitor Stats float — must
	// be byte-identical to the pre-drain one.
	listB := get(hB, "/v1/sessions")
	if !bytes.Equal(listA.Body.Bytes(), listB.Body.Bytes()) {
		t.Fatalf("listing diverged across drain/restore:\n  before: %s\n  after:  %s", listA.Body, listB.Body)
	}

	// Continuing on the restored server matches an uninterrupted run.
	sC, _, _ := newTestServer(t, cfg)
	hC := sC.Handler()
	if rec := postNDJSON(hC, "/v1/stream?model=cpi&session=x", first); rec.Code != 200 {
		t.Fatalf("control first chunk: status %d", rec.Code)
	}
	want := postNDJSON(hC, "/v1/stream?model=cpi&session=x", second)
	got := postNDJSON(hB, "/v1/stream?model=cpi&session=x", second)
	if got.Code != 200 || want.Code != 200 {
		t.Fatalf("continuation status %d / %d", got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("continuation after restore diverged from the uninterrupted run")
	}
}

// corruptTrace renders an NDJSON trace whose samples from `badFrom` on
// carry a negative L1I miss rate — an impossible reading that violates
// the nonneg-L1IM relation and must drive the session to "refuted".
func corruptTrace(total, badFrom int) string {
	var b strings.Builder
	for i := 0; i < total; i++ {
		l1 := 0.01
		if i >= badFrom {
			l1 = -0.01
		}
		fmt.Fprintf(&b, `{"bench":"t","section":%d,"events":{"L1IM":%g,"L2M":0.001,"DtlbLdM":0.0001},"cpi":0.7}`+"\n", i, l1)
	}
	return b.String()
}

// TestSessionRefutationEndpoint covers GET /v1/sessions/{id}/refutation
// and the refutation rollup in both metrics surfaces: a clean session
// reports every relation consistent, a corrupted one is refuted with the
// violating relation named, and the per-relation violation counters land
// in /metrics and /v1/metrics.json.
func TestSessionRefutationEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()

	if rec := postNDJSON(h, "/v1/stream?model=cpi&session=good", streamTrace(40, 20, 100, 0, 7)); rec.Code != 200 {
		t.Fatalf("clean stream: status %d: %s", rec.Code, rec.Body)
	}
	// Two refutation windows, both violated: refuted.
	bad := postNDJSON(h, "/v1/stream?model=cpi", corruptTrace(2*refute.WindowSections, 0))
	if bad.Code != 200 {
		t.Fatalf("corrupt stream: status %d: %s", bad.Code, bad.Body)
	}
	// The corrupt stream's summary line already carries the verdict.
	if !bytes.Contains(bad.Body.Bytes(), []byte(`"verdict":"refuted"`)) {
		t.Errorf("corrupt stream summary lacks the refuted verdict: %s", bad.Body)
	}

	var rep refutationResponse
	rec := get(h, "/v1/sessions/good/refutation?model=cpi")
	if rec.Code != 200 {
		t.Fatalf("clean refutation report: status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Refutation.Verdict != refute.Consistent || len(rep.Refutation.Relations) == 0 {
		t.Errorf("clean session: verdict %q over %d relations, want consistent over >0",
			rep.Refutation.Verdict, len(rep.Refutation.Relations))
	}

	// "-" addresses the model's default session, where the corrupt trace
	// went.
	rec = get(h, "/v1/sessions/-/refutation?model=cpi")
	if rec.Code != 200 {
		t.Fatalf("default-session refutation report: status %d: %s", rec.Code, rec.Body)
	}
	rep = refutationResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Refutation.Verdict != refute.Refuted {
		t.Errorf("corrupt session verdict %q, want refuted", rep.Refutation.Verdict)
	}
	found := false
	for _, rel := range rep.Refutation.Relations {
		if rel.Name == "nonneg-L1IM" {
			found = true
			if rel.Verdict != refute.Refuted || rel.Violations != 64 {
				t.Errorf("nonneg-L1IM: verdict %q with %d violations, want refuted with 64",
					rel.Verdict, rel.Violations)
			}
		} else if rel.Violations != 0 {
			t.Errorf("relation %s has %d violations, want 0", rel.Name, rel.Violations)
		}
	}
	if !found {
		t.Error("nonneg-L1IM missing from the report")
	}

	if rec := get(h, "/v1/sessions/ghost/refutation?model=cpi"); rec.Code != 404 {
		t.Errorf("unknown session: status %d, want 404", rec.Code)
	}
	if rec := get(h, "/v1/sessions/-/refutation?model=ghost"); rec.Code != 404 {
		t.Errorf("unknown model: status %d, want 404", rec.Code)
	}

	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Streams.RefuteConsistent != 1 || snap.Streams.RefuteRefuted != 1 {
		t.Errorf("verdict rollup %d consistent / %d refuted, want 1 / 1",
			snap.Streams.RefuteConsistent, snap.Streams.RefuteRefuted)
	}
	if snap.Streams.RelationViolations["nonneg-L1IM"] != 64 {
		t.Errorf("relation violation rollup %v, want nonneg-L1IM=64", snap.Streams.RelationViolations)
	}
	text := get(h, "/metrics").Body.String()
	for _, line := range []string{
		`serve_stream_refute_sessions{verdict="consistent"} 1`,
		`serve_stream_refute_sessions{verdict="refuted"} 1`,
		`serve_stream_refute_violations_total 64`,
		`serve_stream_refute_relation_violations_total{relation="nonneg-L1IM"} 64`,
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics text missing %q", line)
		}
	}
}

// TestRefutationDrainRestoreDifferential is the differential acceptance
// test for refutation state handoff: a session whose counter stream goes
// bad mid-trace is drained *in the middle of a refutation window that
// already holds violations*, restored into a fresh server, and fed the
// rest of the trace. Its continuation response and its full refutation
// report must be byte-identical to an uninterrupted control run.
func TestRefutationDrainRestoreDifferential(t *testing.T) {
	cfg := streamConfig()
	first, second := splitLines(corruptTrace(3*refute.WindowSections, 20), 30)

	sA, _, _ := newTestServer(t, cfg)
	hA := sA.Handler()
	if rec := postNDJSON(hA, "/v1/stream?model=cpi&session=r", first); rec.Code != 200 {
		t.Fatalf("first chunk: status %d: %s", rec.Code, rec.Body)
	}
	drain := post(hA, "/v1/sessions/drain", "")
	if drain.Code != 200 {
		t.Fatalf("drain status %d: %s", drain.Code, drain.Body)
	}
	// The open window must be in the drained state: samples 0..29 of the
	// first window, 20..29 of them corrupt, not yet judged.
	if !bytes.Contains(drain.Body.Bytes(), []byte(`"window_samples":30,`)) ||
		!bytes.Contains(drain.Body.Bytes(), []byte(`"window_deviation":`)) {
		t.Fatalf("drained state carries no open refutation window: %s", drain.Body)
	}

	sB, _, _ := newTestServer(t, cfg)
	hB := sB.Handler()
	if rec := post(hB, "/v1/sessions/restore", drain.Body.String()); rec.Code != 200 {
		t.Fatalf("restore status %d: %s", rec.Code, rec.Body)
	}

	sC, _, _ := newTestServer(t, cfg)
	hC := sC.Handler()
	if rec := postNDJSON(hC, "/v1/stream?model=cpi&session=r", first); rec.Code != 200 {
		t.Fatalf("control first chunk: status %d", rec.Code)
	}

	got := postNDJSON(hB, "/v1/stream?model=cpi&session=r", second)
	want := postNDJSON(hC, "/v1/stream?model=cpi&session=r", second)
	if got.Code != 200 || want.Code != 200 {
		t.Fatalf("continuation status %d / %d", got.Code, want.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("continuation diverged after restore:\n  restored: %s\n  control:  %s", got.Body, want.Body)
	}

	refB := get(hB, "/v1/sessions/r/refutation?model=cpi")
	refC := get(hC, "/v1/sessions/r/refutation?model=cpi")
	if refB.Code != 200 || refC.Code != 200 {
		t.Fatalf("refutation report status %d / %d", refB.Code, refC.Code)
	}
	if !bytes.Equal(refB.Body.Bytes(), refC.Body.Bytes()) {
		t.Fatalf("refutation report diverged after restore:\n  restored: %s\n  control:  %s", refB.Body, refC.Body)
	}
	var rep refutationResponse
	if err := json.Unmarshal(refB.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Refutation.Verdict != refute.Refuted {
		t.Errorf("verdict %q after full corrupt trace, want refuted", rep.Refutation.Verdict)
	}
}

// twoSessionDump drains a server holding two sessions: "r", refuted by
// a corrupt trace, and "w", left mid-window.
func twoSessionDump(tb testing.TB) []byte {
	tb.Helper()
	s, _, _ := newTestServer(tb, streamConfig())
	h := s.Handler()
	for _, sess := range []struct{ id, trace string }{
		{"r", corruptTrace(2*refute.WindowSections, 0)},
		{"w", streamTrace(refute.WindowSections+20, 20, 9999, 0, 3)},
	} {
		if rec := postNDJSON(h, "/v1/stream?model=cpi&session="+sess.id, sess.trace); rec.Code != http.StatusOK {
			tb.Fatalf("session %s: status %d: %s", sess.id, rec.Code, rec.Body)
		}
	}
	rec := post(h, "/v1/sessions/drain", "")
	if rec.Code != http.StatusOK {
		tb.Fatalf("drain: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// restoreReject is one dump the restore must refuse, with a fragment of
// the error message it must carry.
type restoreReject struct {
	name, body, want string
	status           int
}

// restoreRejects derives the dumps no restore may accept from a real
// two-session dump, each edit applied to the refuted session "r".
func restoreRejects(tb testing.TB, dump []byte) []restoreReject {
	tb.Helper()
	edit := func(f func(r map[string]any)) string {
		var doc map[string]any
		if err := json.Unmarshal(dump, &doc); err != nil {
			tb.Fatal(err)
		}
		f(doc["sessions"].([]any)[0].(map[string]any))
		out, err := json.Marshal(doc)
		if err != nil {
			tb.Fatal(err)
		}
		return string(out)
	}
	state := func(r map[string]any) map[string]any { return r["state"].(map[string]any) }
	refutation := func(r map[string]any) map[string]any { return state(r)["refutation"].(map[string]any) }
	bad := func(name, want string, f func(r map[string]any)) restoreReject {
		return restoreReject{name, edit(f), want, http.StatusBadRequest}
	}
	return []restoreReject{
		{"unknown model", edit(func(r map[string]any) { r["model"] = "ghost" }), "ghost", http.StatusNotFound},
		bad("processor version 2", "version 2 is not supported", func(r map[string]any) { state(r)["schema_version"] = 2 }),
		bad("processor version 99", "version 99 is not supported", func(r map[string]any) { state(r)["schema_version"] = 99 }),
		bad("no refutation block", "no refutation state", func(r map[string]any) { delete(state(r), "refutation") }),
		bad("refutation version 1", "schema_version 1", func(r map[string]any) { refutation(r)["schema_version"] = 1 }),
		bad("refutation version 99", "schema_version 99", func(r map[string]any) { refutation(r)["schema_version"] = 99 }),
		bad("refutation unknown field", "unknown field", func(r map[string]any) { refutation(r)["extra"] = 1 }),
		bad("refutation bad verdict", "unknown verdict", func(r map[string]any) {
			refutation(r)["relations"].([]any)[0].(map[string]any)["verdict"] = "maybe"
		}),
		bad("negative ph n", "negative sample count", func(r map[string]any) { state(r)["ph"].(map[string]any)["n"] = -1 }),
		bad("zero scale", "finite positive", func(r map[string]any) {
			state(r)["phases"].(map[string]any)["stream"].(map[string]any)["scale"].([]any)[0] = 0
		}),
		{"trailing document", string(dump) + "{}", "unexpected data", http.StatusBadRequest},
		{"not json", "nope", "malformed", http.StatusBadRequest},
	}
}

// TestSessionsRestoreRejects pins the all-or-nothing restore contract:
// every dump no server writes is refused with a message naming the
// fault, and none installs a session, the valid session beside the
// edited one included.
func TestSessionsRestoreRejects(t *testing.T) {
	dump := twoSessionDump(t)
	if !bytes.Contains(dump, []byte(`"verdict":"refuted"`)) || !bytes.Contains(dump, []byte(`"window_samples":20,`)) {
		t.Fatalf("fixture: dump lacks a refuted session or a session mid-window: %s", dump)
	}
	for _, tc := range restoreRejects(t, dump) {
		s, _, _ := newTestServer(t, streamConfig())
		h := s.Handler()
		rec := post(h, "/v1/sessions/restore", tc.body)
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%s: status %d, want %d naming %q (%s)", tc.name, rec.Code, tc.status, tc.want, rec.Body)
		}
		if n := streamSessionCount(t, h); n != 0 {
			t.Errorf("%s: rejected restore installed %d sessions", tc.name, n)
		}
	}
}

// TestSessionsRestoreFullWindowRejected restores a version-2 dump whose
// processor carries a full window of pending samples, a form no server
// writes any more. The restore must answer 400 and install nothing, and
// the next stream request and the metrics scrape must still return.
// Both run under a deadline, so a session wedged by such a dump fails
// the test instead of hanging it.
func TestSessionsRestoreFullWindowRejected(t *testing.T) {
	const window = 256
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()

	trace := streamTrace(window+8, 9999, 9999, 0, 3)
	lines := strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
	st := stream.ProcessorState{SchemaVersion: 2}
	st.Phases.Calibration = stream.DefaultConfig().Calibration
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var state map[string]any
	if err := json.Unmarshal(blob, &state); err != nil {
		t.Fatal(err)
	}
	pending := make([]json.RawMessage, window)
	for i, line := range lines[:window] {
		pending[i] = json.RawMessage(line)
	}
	state["pending"] = pending
	dump, err := json.Marshal(map[string]any{
		"sessions": []map[string]any{{"model": "cpi", "session": "s", "state": state}},
	})
	if err != nil {
		t.Fatal(err)
	}
	restore := post(h, "/v1/sessions/restore", string(dump))
	if restore.Code != http.StatusBadRequest {
		t.Errorf("full-window restore: status %d, want 400 (%s)", restore.Code, restore.Body)
	}
	if n := streamSessionCount(t, h); n != 0 {
		t.Errorf("rejected restore installed %d sessions", n)
	}

	code, metrics, panicked := streamThenMetrics(t, h, "cpi", strings.Join(lines[window:], "\n")+"\n")
	if panicked != nil || code != http.StatusOK || metrics != http.StatusOK {
		t.Errorf("after the rejected restore: /v1/stream %d (panic %v), /metrics %d, want 200 both", code, panicked, metrics)
	}
	if n := streamSessionCount(t, h); n != 1 {
		t.Errorf("%d sessions live, want only the one the stream request opened", n)
	}
}

// streamSessionCount reads the live stream session count from
// /v1/metrics.json.
func streamSessionCount(t *testing.T, h http.Handler) int {
	t.Helper()
	var snap struct {
		Streams streamsSnapshot `json:"streams"`
	}
	if err := json.Unmarshal(get(h, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Streams.Sessions
}

// streamThenMetrics posts body to session s of modelName, then scrapes
// /metrics, both under a 10 s deadline. A panicking handler is
// recovered here the way net/http recovers it, so a panic that leaves a
// session locked shows up as a /metrics scrape that never returns.
func streamThenMetrics(t *testing.T, h http.Handler, modelName, body string) (code, metrics int, panicked any) {
	t.Helper()
	type result struct {
		stream, metrics int
		panicked        any
	}
	done := make(chan result, 1)
	go func() {
		var r result
		func() {
			defer func() { r.panicked = recover() }()
			r.stream = postNDJSON(h, "/v1/stream?model="+modelName+"&session=s", body).Code
		}()
		r.metrics = get(h, "/metrics").Code
		done <- r
	}()
	select {
	case r := <-done:
		return r.stream, r.metrics, r.panicked
	case <-time.After(10 * time.Second):
		t.Fatal("/metrics did not return within 10s after the stream request")
		return 0, 0, nil
	}
}

// TestSessionsRestoreWrongWidthRejected drains a session, changes the
// width of one phase-tracker vector (or makes a count negative) and
// restores the dump. Each restore must answer 400 and install nothing;
// the next stream request to that session opens a fresh timeline, and
// /metrics still answers. Accepting such a dump panicked the first
// scoring call under the session lock and wedged every later scrape.
func TestSessionsRestoreWrongWidthRejected(t *testing.T) {
	// The phase boundary at section 40 closes one phase before the
	// 64-sample drain; the 16-sample drain is still calibrating.
	trace := streamTrace(96, 40, 9999, 0, 3)
	tracker := func(st *stream.ProcessorState) *phases.StreamState { return st.Phases.Stream }
	for _, tc := range []struct {
		name    string
		drainAt int
		mutate  func(st *stream.ProcessorState)
	}{
		{"scale", 64, func(st *stream.ProcessorState) { tracker(st).Scale = tracker(st).Scale[1:] }},
		{"centroid", 64, func(st *stream.ProcessorState) {
			tracker(st).Cur.Centroid = append(tracker(st).Cur.Centroid, 1)
		}},
		{"ring slot", 64, func(st *stream.ProcessorState) { tracker(st).Recent[0] = tracker(st).Recent[0][1:] }},
		{"closed phase", 64, func(st *stream.ProcessorState) { tracker(st).Closed = tracker(st).N }},
		{"calibration vector", 16, func(st *stream.ProcessorState) { st.Phases.Buf[3] = st.Phases.Buf[3][1:] }},
		{"negative n", 64, func(st *stream.ProcessorState) { tracker(st).N = -1 }},
		{"negative pos", 64, func(st *stream.ProcessorState) { tracker(st).Pos = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _, _ := newTestServer(t, streamConfig())
			h := s.Handler()
			head, tail := splitLines(trace, tc.drainAt)
			if rec := postNDJSON(h, "/v1/stream?model=cpi&session=s", head); rec.Code != 200 {
				t.Fatalf("seed stream: status %d: %s", rec.Code, rec.Body)
			}
			drain := post(h, "/v1/sessions/drain", "")
			var dump struct {
				Sessions []sessionState `json:"sessions"`
			}
			if err := json.Unmarshal(drain.Body.Bytes(), &dump); err != nil || len(dump.Sessions) != 1 {
				t.Fatalf("drain: %v, %d sessions: %s", err, len(dump.Sessions), drain.Body)
			}
			st := &dump.Sessions[0].State
			if tc.drainAt == 64 && (st.Phases.Stream == nil || st.Phases.Stream.Closed == 0) {
				t.Fatal("fixture: drained tracker has no closed phase")
			}
			tc.mutate(st)
			body, err := json.Marshal(dump)
			if err != nil {
				t.Fatal(err)
			}
			if restore := post(h, "/v1/sessions/restore", string(body)); restore.Code != 400 {
				t.Errorf("restore: status %d, want 400 (%s)", restore.Code, restore.Body)
			}
			code, metrics, panicked := streamThenMetrics(t, h, "cpi", tail)
			if panicked != nil || code != 200 || metrics != 200 {
				t.Errorf("after the restore: /v1/stream %d (panic %v), /metrics %d; want 200 both, no panic",
					code, panicked, metrics)
			}
			if n := streamSessionCount(t, h); n != 1 {
				t.Errorf("%d sessions live, want only the one the stream request opened", n)
			}
		})
	}
}

// panicModel panics on every per-row prediction, standing in for any
// bug in scoring.
type panicModel struct{ servedModel }

func (panicModel) Predict(dataset.Instance) float64 { panic("scoring failed") }

// TestStreamScoringPanicReleasesSession: a panic while scoring under
// the session lock must still release the lock, so /metrics, whose
// snapshot takes every session lock, keeps answering.
func TestStreamScoringPanicReleasesSession(t *testing.T) {
	_, tree, _ := newTestServer(t, streamConfig())
	reg := NewRegistry()
	if err := reg.Register("boom", "v1", panicModel{mtree.Compile(tree)}, ""); err != nil {
		t.Fatal(err)
	}
	h := New(reg, streamConfig()).Handler()
	_, metrics, panicked := streamThenMetrics(t, h, "boom", streamTrace(8, 99, 99, 0, 3))
	if panicked == nil {
		t.Error("the stream request did not panic; the fixture model is not scoring")
	}
	if metrics != 200 {
		t.Errorf("/metrics %d after the panic, want 200", metrics)
	}
}

// TestUnencodableValuesAnswerErrors: a response that holds a value JSON
// cannot represent is never an empty 200. Rates of 1e308 overflow the
// served tree's prediction to infinity: /v1/predict answers a 500
// envelope, /v1/stream answers the events before the failing one and
// then an in-band stream_aborted line, and the session's infinite
// EWMA ends the next stream response in the same error line and makes
// the listing and the drain answer 500. The failed drain puts every
// session back.
func TestUnencodableValuesAnswerErrors(t *testing.T) {
	s, _, _ := newTestServer(t, streamConfig())
	h := s.Handler()
	const huge = `{"L2M":1e308,"L1IM":1e308}`
	envelope := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusInternalServerError || err != nil ||
			env.Error.Code != ErrCodeInternal || !strings.Contains(env.Error.Message, "unsupported value") {
			t.Errorf("%s: status %d, body %q; want a 500 %q envelope", name, rec.Code, rec.Body, ErrCodeInternal)
		}
	}
	envelope("predict", post(h, "/v1/predict", `{"model":"cpi","events":[`+huge+`]}`))

	if rec := postNDJSON(h, "/v1/stream?model=cpi&session=ok", streamTrace(8, 99, 99, 0, 3)); rec.Code != http.StatusOK {
		t.Fatalf("healthy session: status %d: %s", rec.Code, rec.Body)
	}
	rec := postNDJSON(h, "/v1/stream?model=cpi&session=bad", streamTrace(3, 99, 99, 0, 5)+`{"events":`+huge+`}`+"\n")
	aborted := func(name string, rec *httptest.ResponseRecorder, samples int) {
		t.Helper()
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		var last struct {
			Type  string
			Error apiError
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); rec.Code != http.StatusOK || len(lines) != samples+1 ||
			err != nil || last.Type != "error" || last.Error.Code != ErrCodeStreamAborted ||
			!strings.Contains(last.Error.Message, "unsupported value") {
			t.Errorf("%s: status %d, want 200 with %d sample lines and a %q line: %s",
				name, rec.Code, samples, ErrCodeStreamAborted, rec.Body)
		}
	}
	aborted("stream", rec, 3)
	// The next request's events encode, but its summary carries the
	// session's infinite EWMA.
	aborted("stream after", postNDJSON(h, "/v1/stream?model=cpi&session=bad", streamTrace(2, 99, 99, 0, 5)), 2)

	envelope("sessions listing", get(h, "/v1/sessions"))
	envelope("drain", post(h, "/v1/sessions/drain", ""))
	if n := streamSessionCount(t, h); n != 2 {
		t.Errorf("%d sessions live after the failed drain, want both", n)
	}
	if _, ok := s.streams.lookup("cpi@v1", "ok"); !ok {
		t.Error("the healthy session is gone after the failed drain")
	}
}

// FuzzSessionsRestore hammers POST /v1/sessions/restore, the one reader
// of session dumps. No input may panic it. A rejected body installs
// nothing. After an accepted one, a short stream request to every
// restored session answers 200, and the drain then either answers 200
// with a dump that restores into a fresh server and drains to the same
// bytes, or answers 500 and leaves every session in place.
func FuzzSessionsRestore(f *testing.F) {
	dump := twoSessionDump(f)
	f.Add(dump)
	for _, tc := range restoreRejects(f, dump) {
		f.Add([]byte(tc.body))
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", buildTree(f, perfData(1200, 5)), ""); err != nil {
		f.Fatal(err)
	}
	server := func() http.Handler { return New(reg, streamConfig()).Handler() }
	tail := streamTrace(4, 99, 99, 0, 9)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := server()
		if rec := post(h, "/v1/sessions/restore", string(data)); rec.Code != http.StatusOK {
			if n := streamSessionCount(t, h); n != 0 {
				t.Fatalf("rejected restore (%d) installed %d sessions", rec.Code, n)
			}
			return
		}
		var req struct{ Sessions []sessionState }
		if err := json.Unmarshal(data, &req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		// Every model an accepted body names resolves to cpi@v1, so the
		// session id alone keys the table.
		keys := map[string]bool{}
		for _, st := range req.Sessions {
			path := "/v1/stream?model=" + url.QueryEscape(st.Model) + "&session=" + url.QueryEscape(st.Session)
			if rec := postNDJSON(h, path, tail); rec.Code != http.StatusOK {
				t.Fatalf("stream to restored session %q: status %d: %s", st.Session, rec.Code, rec.Body)
			}
			keys[st.Session] = true
		}
		drain := post(h, "/v1/sessions/drain", "")
		switch drain.Code {
		case http.StatusOK:
			h2 := server()
			if rec := post(h2, "/v1/sessions/restore", drain.Body.String()); rec.Code != http.StatusOK {
				t.Fatalf("a drained dump does not restore: status %d: %s", rec.Code, rec.Body)
			}
			if again := post(h2, "/v1/sessions/drain", ""); !bytes.Equal(again.Body.Bytes(), drain.Body.Bytes()) {
				t.Fatalf("re-drain differs from the restored dump:\n  %s\n  %s", drain.Body, again.Body)
			}
		case http.StatusInternalServerError:
			if n := streamSessionCount(t, h); n != len(keys) {
				t.Fatalf("failed drain left %d sessions, want %d", n, len(keys))
			}
		default:
			t.Fatalf("drain: status %d: %s", drain.Code, drain.Body)
		}
	})
}
