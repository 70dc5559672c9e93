package serve

// Conformance properties for the HTTP layer: the prediction cache and
// the worker pool must be semantically invisible (byte-identical
// responses), and /v1/stream must not care how a trace is chunked
// across requests. These run against randomized request mixes rather
// than the fixture-driven cases in serve_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/proptest"
)

// genRows builds a pool of prediction inputs, mostly in-distribution
// with the occasional out-of-range value. A small pool means the
// randomized request mix repeats rows, so a caching server actually
// exercises its hit path.
func genRows(r *proptest.Rand, n int) [][4]float64 {
	rows := make([][4]float64, n)
	for i := range rows {
		rows[i] = [4]float64{0, r.Range(0, 0.02), r.Range(0, 0.005), r.Range(0, 0.001)}
		if r.Bool(0.1) {
			rows[i][1+r.Intn(3)] = r.Range(-0.005, 0.05)
		}
	}
	return rows
}

func rowJSON(row [4]float64) string {
	return fmt.Sprintf("[%g,%g,%g,%g]", row[0], row[1], row[2], row[3])
}

type apiRequest struct{ path, body string }

// genRequests produces a randomized mix of single-row, batch,
// named-event and classify requests with plenty of repeats.
func genRequests(r *proptest.Rand, rows [][4]float64, n int) []apiRequest {
	reqs := make([]apiRequest, n)
	for i := range reqs {
		row := rows[r.Intn(len(rows))]
		switch r.Intn(4) {
		case 0:
			body := fmt.Sprintf(`{"model":"cpi","row":%s`, rowJSON(row))
			if r.Coin() {
				body += `,"contributions":true`
			}
			reqs[i] = apiRequest{"/v1/predict", body + "}"}
		case 1:
			parts := make([]string, r.IntBetween(1, 6))
			for j := range parts {
				parts[j] = rowJSON(rows[r.Intn(len(rows))])
			}
			reqs[i] = apiRequest{"/v1/predict",
				fmt.Sprintf(`{"model":"cpi","rows":[%s]}`, strings.Join(parts, ","))}
		case 2:
			reqs[i] = apiRequest{"/v1/predict",
				fmt.Sprintf(`{"model":"cpi","events":[{"L1IM":%g,"L2M":%g,"DtlbLdM":%g}]}`,
					row[1], row[2], row[3])}
		default:
			reqs[i] = apiRequest{"/v1/classify",
				fmt.Sprintf(`{"model":"cpi","row":%s}`, rowJSON(row))}
		}
	}
	return reqs
}

// TestCacheTransparency: a caching server and an uncached one answer an
// identical randomized request sequence with byte-identical responses —
// the cache is a pure optimization. The /metrics probe at the end
// proves the cache actually engaged, so the equality is not vacuous.
func TestCacheTransparency(t *testing.T) {
	cfgOn := DefaultConfig()
	cfgOn.CacheSize = 1024
	cfgOff := DefaultConfig()
	cfgOff.CacheSize = 0
	sOn, _, _ := newTestServer(t, cfgOn)
	sOff, _, _ := newTestServer(t, cfgOff)
	hOn, hOff := sOn.Handler(), sOff.Handler()

	proptest.Run(t, "cache-transparent", 6, func(t *testing.T, r *proptest.Rand) {
		rows := genRows(r, r.IntBetween(3, 10))
		for i, req := range genRequests(r, rows, 40) {
			a := post(hOn, req.path, req.body)
			b := post(hOff, req.path, req.body)
			if a.Code != b.Code {
				t.Fatalf("request %d (%s %s): status %d cached vs %d uncached",
					i, req.path, req.body, a.Code, b.Code)
			}
			if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
				t.Fatalf("request %d (%s %s): cached response %s differs from uncached %s",
					i, req.path, req.body, a.Body, b.Body)
			}
		}
	})

	var snap struct {
		Cache cacheSnapshot `json:"cache"`
	}
	if err := json.Unmarshal(get(hOn, "/v1/metrics.json").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Cache.Enabled || snap.Cache.Hits == 0 {
		t.Fatalf("cache never engaged (enabled %v, hits %d): the transparency "+
			"property tested nothing", snap.Cache.Enabled, snap.Cache.Hits)
	}
}

// TestBatchMatchesSingles: one batch request returns exactly the
// predictions of per-row single requests, and each matches a direct
// tree.Predict.
func TestBatchMatchesSingles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheSize = 0
	s, tree, _ := newTestServer(t, cfg)
	h := s.Handler()

	proptest.Run(t, "batch-vs-singles", 6, func(t *testing.T, r *proptest.Rand) {
		rows := genRows(r, r.IntBetween(2, 24))
		parts := make([]string, len(rows))
		for i, row := range rows {
			parts[i] = rowJSON(row)
		}
		body := fmt.Sprintf(`{"model":"cpi","rows":[%s]}`, strings.Join(parts, ","))

		rec := post(h, "/v1/predict", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch status %d: %s", rec.Code, rec.Body)
		}
		var batch struct {
			Predictions []float64 `json:"predictions"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch.Predictions) != len(rows) {
			t.Fatalf("%d predictions for %d rows", len(batch.Predictions), len(rows))
		}
		for i, row := range rows {
			rec := post(h, "/v1/predict",
				fmt.Sprintf(`{"model":"cpi","row":%s}`, rowJSON(row)))
			if rec.Code != http.StatusOK {
				t.Fatalf("single %d: status %d: %s", i, rec.Code, rec.Body)
			}
			var single struct {
				Predictions []float64 `json:"predictions"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
				t.Fatal(err)
			}
			if single.Predictions[0] != batch.Predictions[i] {
				t.Fatalf("row %d: single %v != batch %v", i, single.Predictions[0], batch.Predictions[i])
			}
			want := tree.Predict(dataset.Instance{row[0], row[1], row[2], row[3]})
			if batch.Predictions[i] != want {
				t.Fatalf("row %d: served %v != Predict %v", i, batch.Predictions[i], want)
			}
		}
	})
}

// TestStreamChunkingInvariance: a trace posted to /v1/stream in one
// request and the same trace split at random line boundaries across
// several requests produce the same event lines (summary lines are
// per-request bookkeeping and excluded) and the same final stats.
func TestStreamChunkingInvariance(t *testing.T) {
	nonSummary := func(ndjson []byte) []string {
		var out []string
		for _, line := range strings.Split(strings.TrimSuffix(string(ndjson), "\n"), "\n") {
			var ev struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			if ev.Type != "summary" {
				out = append(out, line)
			}
		}
		return out
	}

	proptest.Run(t, "stream-chunking", 5, func(t *testing.T, r *proptest.Rand) {
		total := r.IntBetween(40, 120)
		trace := streamTrace(total, total/2, 3*total/4, r.Range(0, 0.6), r.Int63())
		lines := strings.SplitAfter(strings.TrimSuffix(trace, "\n"), "\n")

		run := func(chunks []string) ([]string, []byte) {
			s, _, _ := newTestServer(t, streamConfig())
			h := s.Handler()
			var body bytes.Buffer
			for _, chunk := range chunks {
				rec := postNDJSON(h, "/v1/stream?model=cpi", chunk)
				if rec.Code != http.StatusOK {
					t.Fatalf("stream status %d: %s", rec.Code, rec.Body)
				}
				body.Write(rec.Body.Bytes())
			}
			return nonSummary(body.Bytes()), get(h, "/v1/metrics.json").Body.Bytes()
		}

		var chunks []string
		for rest := lines; len(rest) > 0; {
			n := r.IntBetween(1, len(rest))
			chunks = append(chunks, strings.Join(rest[:n], ""))
			rest = rest[n:]
		}

		whole, wholeMetrics := run([]string{trace})
		split, splitMetrics := run(chunks)
		if len(whole) != len(split) {
			t.Fatalf("%d event lines whole vs %d split across %d requests",
				len(whole), len(split), len(chunks))
		}
		for i := range whole {
			if whole[i] != split[i] {
				t.Fatalf("event %d differs:\nwhole: %s\nsplit: %s", i, whole[i], split[i])
			}
		}

		var a, b struct {
			Streams streamsSnapshot `json:"streams"`
		}
		if err := json.Unmarshal(wholeMetrics, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(splitMetrics, &b); err != nil {
			t.Fatal(err)
		}
		if a.Streams.Scored != b.Streams.Scored ||
			a.Streams.PhaseBoundaries != b.Streams.PhaseBoundaries ||
			a.Streams.DriftAlarms != b.Streams.DriftAlarms {
			t.Fatalf("monitor stats diverge: whole %+v vs split %+v", a.Streams, b.Streams)
		}
	})
}
