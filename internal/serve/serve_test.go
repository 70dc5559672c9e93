package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mtree"
)

// perfData builds a small CPI-like dataset: two event-rate features with
// a piecewise-linear target, enough for a tree with several leaves.
func perfData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}, {Name: "DtlbLdM"},
	}, 0)
	for i := 0; i < n; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		y := 0.6 + 7*l1 + 0.02*rng.NormFloat64()
		if l2 > 0.002 {
			y = 1.1 + 90*l2 + 40*dt + 0.02*rng.NormFloat64()
		}
		d.MustAppend(dataset.Instance{y, l1, l2, dt})
	}
	return d
}

func buildTree(t testing.TB, d *dataset.Dataset) *mtree.Tree {
	t.Helper()
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// newTestServer registers a tree as cpi@v1 and returns the server plus
// the tree and dataset behind it.
func newTestServer(t testing.TB, cfg Config) (*Server, *mtree.Tree, *dataset.Dataset) {
	t.Helper()
	d := perfData(1200, 5)
	tree := buildTree(t, d)
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg), tree, d
}

// post runs one POST through the handler and returns the recorder.
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func rowsJSON(d *dataset.Dataset, from, to int) string {
	var b bytes.Buffer
	b.WriteString("[")
	for i := from; i < to; i++ {
		if i > from {
			b.WriteString(",")
		}
		rb, _ := json.Marshal(d.Row(i))
		b.Write(rb)
	}
	b.WriteString("]")
	return b.String()
}

func TestPredictSingleRow(t *testing.T) {
	s, tree, d := newTestServer(t, DefaultConfig())
	h := s.Handler()
	row, _ := json.Marshal(d.Row(3))
	rec := post(h, "/v1/predict", fmt.Sprintf(`{"model":"cpi","row":%s}`, row))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Model       string    `json:"model"`
		N           int       `json:"n"`
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "cpi@v1" || resp.N != 1 || len(resp.Predictions) != 1 {
		t.Fatalf("unexpected response: %s", rec.Body)
	}
	if want := tree.Predict(d.Row(3)); resp.Predictions[0] != want {
		t.Errorf("served %v, serial Predict %v", resp.Predictions[0], want)
	}
}

func TestPredictNamedEvents(t *testing.T) {
	s, tree, d := newTestServer(t, DefaultConfig())
	h := s.Handler()
	r := d.Row(7)
	body := fmt.Sprintf(`{"model":"cpi","events":[{"L1IM":%g,"L2M":%g,"DtlbLdM":%g}]}`, r[1], r[2], r[3])
	rec := post(h, "/v1/predict", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The expanded instance has target=0, which Predict never reads.
	expanded := dataset.Instance{0, r[1], r[2], r[3]}
	if want := tree.Predict(expanded); resp.Predictions[0] != want {
		t.Errorf("served %v, want %v", resp.Predictions[0], want)
	}

	rec = post(h, "/v1/predict", `{"model":"cpi","events":[{"NoSuchEvent":1}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown event name: status %d, want 400", rec.Code)
	}
}

// TestBatchDeterminism is the acceptance check: batch responses must be
// byte-identical to Tree.Predict row by row, cache on or off, warm or
// cold.
func TestBatchDeterminism(t *testing.T) {
	d := perfData(1200, 5)
	tree := buildTree(t, d)
	body := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 400))

	var bodies [][]byte
	for _, cfg := range []Config{
		{CacheSize: 0, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
		{CacheSize: 1024, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
	} {
		reg := NewRegistry()
		if err := reg.Register("cpi", "v1", tree, ""); err != nil {
			t.Fatal(err)
		}
		h := New(reg, cfg).Handler()
		// Twice per config: the second pass hits a warm cache where enabled.
		for pass := 0; pass < 2; pass++ {
			rec := post(h, "/v1/predict", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("cfg %+v pass %d: status %d: %s", cfg, pass, rec.Code, rec.Body)
			}
			bodies = append(bodies, rec.Body.Bytes())
		}
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}

	var resp struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Predictions) != 400 {
		t.Fatalf("%d predictions, want 400", len(resp.Predictions))
	}
	for i, p := range resp.Predictions {
		if want := tree.Predict(d.Row(i)); p != want {
			t.Fatalf("row %d: served %v, serial Predict %v", i, p, want)
		}
	}
}

func TestPredictContributions(t *testing.T) {
	s, tree, d := newTestServer(t, DefaultConfig())
	h := s.Handler()
	row, _ := json.Marshal(d.Row(11))
	rec := post(h, "/v1/predict", fmt.Sprintf(`{"model":"cpi","row":%s,"contributions":true}`, row))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Contributions [][]struct {
			Name     string  `json:"name"`
			Cycles   float64 `json:"cycles"`
			Fraction float64 `json:"fraction"`
		} `json:"contributions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Contributions) != 1 {
		t.Fatalf("contribution sets: %d, want 1", len(resp.Contributions))
	}
	want := tree.Contributions(d.Row(11))
	if len(resp.Contributions[0]) != len(want) {
		t.Fatalf("contribution terms: %d, want %d", len(resp.Contributions[0]), len(want))
	}
	for i, c := range resp.Contributions[0] {
		if c.Name != want[i].Name || c.Cycles != want[i].Cycles {
			t.Errorf("term %d: %+v, want %+v", i, c, want[i])
		}
	}
}

func TestPredictErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 8
	cfg.MaxBodyBytes = 1 << 14
	s, _, d := newTestServer(t, cfg)
	h := s.Handler()

	cases := []struct {
		name, path, body string
		want             int
		code             string
	}{
		{"malformed JSON", "/v1/predict", `{"model":`, http.StatusBadRequest, ErrCodeBadRequest},
		{"unknown field", "/v1/predict", `{"model":"cpi","bogus":1}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"missing model", "/v1/predict", `{"row":[0,0,0,0]}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"unknown model", "/v1/predict", `{"model":"nope","row":[0,0,0,0]}`, http.StatusNotFound, ErrCodeNotFound},
		{"unknown version", "/v1/predict", `{"model":"cpi@v9","row":[0,0,0,0]}`, http.StatusNotFound, ErrCodeNotFound},
		{"no instances", "/v1/predict", `{"model":"cpi"}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"empty rows", "/v1/predict", `{"model":"cpi","rows":[]}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"two forms", "/v1/predict", `{"model":"cpi","row":[0,0,0,0],"rows":[[0,0,0,0]]}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"bad width", "/v1/predict", `{"model":"cpi","row":[1,2]}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"oversized batch", "/v1/predict", fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 9)), http.StatusRequestEntityTooLarge, ErrCodeTooLarge},
	}
	for _, tc := range cases {
		rec := post(h, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil ||
			env.Error.Code != tc.code || env.Error.Message == "" {
			t.Errorf("%s: bad error envelope (want code %q): %s", tc.name, tc.code, rec.Body)
		}
	}

	// Oversized body: a payload bigger than MaxBodyBytes.
	big := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 300))
	if len(big) <= int(cfg.MaxBodyBytes) {
		t.Fatalf("test payload too small to trip the limit")
	}
	if rec := post(h, "/v1/predict", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}

	// Wrong method.
	if rec := get(h, "/v1/predict"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status %d, want 405", rec.Code)
	}
}

// TestTrailingRequestDataRejected: a JSON request body holds exactly one
// value. Anything but whitespace after it is a 400 on every decoding
// route — never a silently ignored second request — and a restore of two
// concatenated dumps installs nothing. Oversized bodies still get 413.
func TestTrailingRequestDataRejected(t *testing.T) {
	cfg := streamConfig()
	cfg.MaxBodyBytes = 1 << 16
	s, _, d := newTestServer(t, cfg)
	h := s.Handler()
	row, _ := json.Marshal(d.Row(0))
	predict := fmt.Sprintf(`{"model":"cpi","rows":[%s]}`, row)

	// A drained dump of one live session, for the restore cases.
	if rec := postNDJSON(h, "/v1/stream?model=cpi&session=a", streamTrace(8, 99, 99, 0, 3)); rec.Code != 200 {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
	}
	dump := post(h, "/v1/sessions/drain", "").Body.String()

	for _, tc := range []struct {
		name, path, body string
		want             int
	}{
		{"predict", "/v1/predict", predict, 200},
		{"predict trailing whitespace", "/v1/predict", predict + " \n\t\r\n", 200},
		{"predict second value", "/v1/predict", predict + ` {"model":"nope"} trailing garbage`, 400},
		{"predict trailing garbage", "/v1/predict", predict + `x`, 400},
		{"classify second value", "/v1/classify", predict + ` {"model":"nope"} trailing garbage`, 400},
		{"classify trailing bracket", "/v1/classify", predict + `]`, 400},
		{"restore two dumps", "/v1/sessions/restore", dump + dump, 400},
		{"predict oversized value", "/v1/predict", fmt.Sprintf(`{"model":"cpi","rows":[%s%s]}`, row, strings.Repeat(","+string(row), 2000)), 413},
		{"predict oversized trailing whitespace", "/v1/predict", predict + strings.Repeat(" ", 1<<16), 413},
	} {
		rec := post(h, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%.200s)", tc.name, rec.Code, tc.want, rec.Body)
			continue
		}
		if tc.want == 200 {
			continue
		}
		code := ErrCodeBadRequest
		if tc.want == 413 {
			code = ErrCodeTooLarge
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != code {
			t.Errorf("%s: bad error envelope (want code %q): %s", tc.name, code, rec.Body)
		}
	}
	if n := streamSessionCount(t, h); n != 0 {
		t.Errorf("a rejected restore installed %d sessions", n)
	}
	if rec := post(h, "/v1/sessions/restore", dump+"\n"); rec.Code != 200 {
		t.Errorf("restore of one dump: status %d (%s)", rec.Code, rec.Body)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so an
// allocation count sees only the handler's own allocations.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestWriteJSONAllocs: encoding a response into a pooled buffer before
// its status line allocates no more per response, once the pool is
// warm, than encoding straight to the writer did.
func TestWriteJSONAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	w := discardWriter{h: http.Header{}}
	resp := predictResponse{Model: "cpi@v1", N: 64, Predictions: make([]float64, 64)}
	for i := range resp.Predictions {
		resp.Predictions[i] = 0.6 + float64(i)/1e3
	}
	direct := testing.AllocsPerRun(100, func() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(resp)
	})
	buffered := testing.AllocsPerRun(100, func() { writeJSON(w, http.StatusOK, resp) })
	if buffered > direct {
		t.Errorf("writeJSON: %v allocations per response, the direct encode %v", buffered, direct)
	}
}

func TestClassify(t *testing.T) {
	s, tree, d := newTestServer(t, DefaultConfig())
	h := s.Handler()
	rec := post(h, "/v1/classify", fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 5)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Classes []struct {
			LeafID int `json:"leaf_id"`
			Path   []struct {
				Event string  `json:"event"`
				Above bool    `json:"above"`
				Thr   float64 `json:"threshold"`
			} `json:"path"`
			Prediction float64 `json:"prediction"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Classes) != 5 {
		t.Fatalf("%d classes, want 5", len(resp.Classes))
	}
	for i, c := range resp.Classes {
		leaf, path := tree.Classify(d.Row(i))
		if c.LeafID != leaf.LeafID {
			t.Errorf("row %d: leaf %d, want %d", i, c.LeafID, leaf.LeafID)
		}
		if len(c.Path) != len(path) {
			t.Errorf("row %d: path length %d, want %d", i, len(c.Path), len(path))
		}
		if want := leaf.Model.Predict(d.Row(i)); c.Prediction != want {
			t.Errorf("row %d: leaf prediction %v, want %v", i, c.Prediction, want)
		}
	}
}

func TestModelsAndVersions(t *testing.T) {
	d := perfData(1200, 5)
	tree := buildTree(t, d)
	d2 := perfData(1200, 6)
	tree2 := buildTree(t, d2)
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("cpi", "v2", tree2, ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("cpi", "v2", tree2, ""); err == nil {
		t.Error("duplicate (name, version) accepted")
	}
	h := New(reg, DefaultConfig()).Handler()

	rec := get(h, "/v1/models")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var listing struct {
		Models []struct {
			Name    string `json:"name"`
			Version string `json:"version"`
			Latest  bool   `json:"latest"`
			Kind    string `json:"kind"`
			Leaves  int    `json:"num_leaves"`
		} `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Models) != 2 {
		t.Fatalf("%d models listed, want 2: %s", len(listing.Models), rec.Body)
	}
	if listing.Models[0].Version != "v1" || listing.Models[0].Latest {
		t.Errorf("v1 entry wrong: %+v", listing.Models[0])
	}
	if listing.Models[1].Version != "v2" || !listing.Models[1].Latest {
		t.Errorf("v2 entry wrong: %+v", listing.Models[1])
	}
	if listing.Models[0].Kind != "m5-model-tree" || listing.Models[0].Leaves < 1 {
		t.Errorf("description not populated: %+v", listing.Models[0])
	}

	// A bare name must resolve to the latest version.
	row, _ := json.Marshal(d.Row(0))
	rec = post(h, "/v1/predict", fmt.Sprintf(`{"model":"cpi","row":%s}`, row))
	var resp struct {
		Model       string    `json:"model"`
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != "cpi@v2" {
		t.Errorf("bare name resolved to %s, want cpi@v2", resp.Model)
	}
	if want := tree2.Predict(d.Row(0)); resp.Predictions[0] != want {
		t.Errorf("latest-version prediction %v, want %v", resp.Predictions[0], want)
	}
	// Pinned version still reachable.
	rec = post(h, "/v1/predict", fmt.Sprintf(`{"model":"cpi@v1","row":%s}`, row))
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := tree.Predict(d.Row(0)); resp.Predictions[0] != want {
		t.Errorf("pinned-version prediction %v, want %v", resp.Predictions[0], want)
	}
}

func TestHealthz(t *testing.T) {
	s, _, _ := newTestServer(t, DefaultConfig())
	rec := get(s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Models != 1 {
		t.Errorf("healthz: %s", rec.Body)
	}
}

// TestMetricsEndpoint drives traffic (including a repeated request that
// must hit the cache) and checks the /v1/metrics.json report: request
// counts, error counts, latency quantiles, histogram buckets and the
// cache hit rate, plus the text rendering at /metrics.
func TestMetricsEndpoint(t *testing.T) {
	s, _, d := newTestServer(t, DefaultConfig())
	h := s.Handler()

	body := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 50))
	for i := 0; i < 3; i++ { // passes 2 and 3 are pure cache hits
		if rec := post(h, "/v1/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("predict pass %d: %d", i, rec.Code)
		}
	}
	post(h, "/v1/predict", `{"model":"ghost","row":[0,0,0,0]}`) // one 404

	rec := get(h, "/v1/metrics.json")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var snap struct {
		Models    int `json:"models"`
		Endpoints map[string]struct {
			Requests  uint64 `json:"requests"`
			Errors    uint64 `json:"errors"`
			InFlight  int64  `json:"in_flight"`
			LatencyMs struct {
				Count   uint64  `json:"count"`
				P50     float64 `json:"p50_ms"`
				P90     float64 `json:"p90_ms"`
				P99     float64 `json:"p99_ms"`
				Buckets []struct {
					LeMs  float64 `json:"le_ms"`
					Count uint64  `json:"count"`
				} `json:"buckets"`
			} `json:"latency_ms"`
		} `json:"endpoints"`
		Cache struct {
			Enabled bool    `json:"enabled"`
			Hits    uint64  `json:"hits"`
			Misses  uint64  `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ep := snap.Endpoints["/v1/predict"]
	if ep.Requests != 4 {
		t.Errorf("predict requests = %d, want 4", ep.Requests)
	}
	if ep.Errors != 1 {
		t.Errorf("predict errors = %d, want 1", ep.Errors)
	}
	if ep.InFlight != 0 {
		t.Errorf("predict in_flight = %d, want 0", ep.InFlight)
	}
	if ep.LatencyMs.P50 <= 0 || ep.LatencyMs.P99 < ep.LatencyMs.P50 {
		t.Errorf("implausible latency quantiles: %+v", ep.LatencyMs)
	}
	if ep.LatencyMs.Count != 4 {
		t.Errorf("latency count = %d, want 4", ep.LatencyMs.Count)
	}
	if n := len(ep.LatencyMs.Buckets); n == 0 {
		t.Error("no histogram buckets in metrics.json")
	} else {
		last := ep.LatencyMs.Buckets[n-1]
		if last.Count > ep.LatencyMs.Count {
			t.Errorf("cumulative bucket count %d exceeds total %d", last.Count, ep.LatencyMs.Count)
		}
		for i := 1; i < n; i++ {
			if ep.LatencyMs.Buckets[i].Count < ep.LatencyMs.Buckets[i-1].Count {
				t.Fatalf("bucket counts not cumulative at %d: %+v", i, ep.LatencyMs.Buckets)
			}
		}
	}
	if !snap.Cache.Enabled {
		t.Fatal("cache not reported enabled")
	}
	if snap.Cache.Hits != 100 || snap.Cache.Misses != 50 {
		t.Errorf("cache hits/misses = %d/%d, want 100/50", snap.Cache.Hits, snap.Cache.Misses)
	}
	if snap.Cache.HitRate < 0.66 || snap.Cache.HitRate > 0.67 {
		t.Errorf("hit rate %v, want ~2/3", snap.Cache.HitRate)
	}
	if snap.Models != 1 {
		t.Errorf("models = %d, want 1", snap.Models)
	}
}

// TestMetricsText checks the flat text exposition at /metrics: plain
// text content type, deterministic `name{labels} value` lines carrying
// the same counters as /v1/metrics.json.
func TestMetricsText(t *testing.T) {
	s, _, d := newTestServer(t, DefaultConfig())
	h := s.Handler()
	row, _ := json.Marshal(d.Row(0))
	if rec := post(h, "/v1/predict", fmt.Sprintf(`{"model":"cpi","row":%s}`, row)); rec.Code != http.StatusOK {
		t.Fatalf("predict: %d", rec.Code)
	}
	rec := get(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"serve_models 1\n",
		`serve_requests_total{route="/v1/predict"} 1` + "\n",
		`serve_errors_total{route="/v1/predict"} 0` + "\n",
		`serve_latency_ms{route="/v1/predict",stat="p50"} `,
		"serve_cache_enabled 1\n",
		"serve_stream_sessions 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q:\n%s", want, text)
		}
	}
}

// TestModelDetail checks GET /v1/models/{ref}: schema and the versions
// listing — the surface cmd/loadgen uses to shape payloads per model.
func TestModelDetail(t *testing.T) {
	d := perfData(1200, 5)
	tree := buildTree(t, d)
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("cpi", "v2", tree, ""); err != nil {
		t.Fatal(err)
	}
	h := New(reg, DefaultConfig()).Handler()

	var det struct {
		Name     string   `json:"name"`
		Version  string   `json:"version"`
		Latest   bool     `json:"latest"`
		Kind     string   `json:"kind"`
		Attrs    []string `json:"attrs"`
		Target   string   `json:"target"`
		Versions []string `json:"versions"`
	}
	rec := get(h, "/v1/models/cpi")
	if rec.Code != http.StatusOK {
		t.Fatalf("detail status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &det); err != nil {
		t.Fatal(err)
	}
	if det.Name != "cpi" || det.Version != "v2" || !det.Latest {
		t.Errorf("bare name should resolve to latest: %s", rec.Body)
	}
	if det.Target != "CPI" || len(det.Attrs) != 4 {
		t.Errorf("schema not populated: %s", rec.Body)
	}
	if body := rec.Body.String(); strings.Contains(body, `"evaluator"`) || strings.Contains(body, `"batch_kernel"`) ||
		strings.Contains(body, `"classifiable"`) {
		t.Errorf("detail still carries the constant evaluator fields: %s", rec.Body)
	}
	if len(det.Versions) != 2 || det.Versions[0] != "v1" || det.Versions[1] != "v2" {
		t.Errorf("versions = %v, want [v1 v2]", det.Versions)
	}

	// A pinned reference resolves that exact version.
	rec = get(h, "/v1/models/cpi@v1")
	if rec.Code != http.StatusOK {
		t.Fatalf("pinned detail status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &det); err != nil {
		t.Fatal(err)
	}
	if det.Version != "v1" || det.Latest {
		t.Errorf("pinned detail wrong: %s", rec.Body)
	}

	// Unknown models 404 with the envelope.
	rec = get(h, "/v1/models/ghost")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown model detail status %d", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != ErrCodeNotFound {
		t.Errorf("bad 404 envelope: %s", rec.Body)
	}
}
