package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/workload"
)

// adversarialCase is one /v1/predict and /v1/classify body with the
// status and error code each route answers. classify is the classify
// status where it differs from predict's (only for "contributions",
// which classify rejects before it looks the model up).
type adversarialCase struct {
	name     string
	big      bool // served with a 4 MiB body limit instead of 4 KiB
	body     string
	status   int
	code     string
	classify int
}

const okRow = `[0,0.01,0.001,0]`

// adversarialBodies are bodies whose accept/reject verdict depends on a
// corner of encoding/json's decoding rules (folded and escaped keys,
// duplicate keys, nulls, slices decoded in place), on schema checks, or
// on which of several failures wins. The server under test serves the
// 4-column cpi tree with MaxBatch 8.
var adversarialBodies = []adversarialCase{
	// Keys: struct fields match case-insensitively under Unicode
	// folding (ſ is s), after \u escapes are decoded; map keys (event
	// names) match exactly; unknown fields are rejected.
	{name: "upper-case keys", body: `{"MODEL":"cpi","ROW":` + okRow + `}`, status: 200},
	{name: "mixed-case keys", body: `{"Model":"cpi","Rows":[` + okRow + `]}`, status: 200},
	{name: "folded rows key", body: `{"model":"cpi","rowſ":[` + okRow + `]}`, status: 200},
	{name: "folded events key", body: `{"model":"cpi","eventſ":[{"L2M":0.001}]}`, status: 200},
	{name: "folded contributions key", body: `{"model":"cpi","row":` + okRow + `,"contributionſ":true}`, status: 200, classify: 400},
	{name: "escaped keys", body: `{"\u006dodel":"cpi","\u0072o\u0077":` + okRow + `}`, status: 200},
	{name: "escaped model and event", body: `{"model":"c\u0070i","events":[{"L\u0032M":0.001}]}`, status: 200},
	{name: "unknown field", body: `{"model":"cpi","row":` + okRow + `,"bogus":1}`, status: 400},
	{name: "unknown null field", body: `{"model":"cpi","row":` + okRow + `,"bogus":null}`, status: 400},
	{name: "unknown field first", body: `{"x":{},"model":"cpi","row":` + okRow + `}`, status: 400},
	{name: "near-miss field", body: `{"model":"cpi","row":` + okRow + `,"modelx":"cpi"}`, status: 400},
	{name: "empty key", body: `{"":1,"model":"cpi","row":` + okRow + `}`, status: 400},
	{name: "invalid UTF-8 key", body: "{\"mod\xffel\":\"cpi\",\"row\":" + okRow + "}", status: 400},
	{name: "event names are case-sensitive", body: `{"model":"cpi","events":[{"l2m":0.001}]}`, status: 400},
	{name: "event name with a lone surrogate", body: `{"model":"cpi","events":[{"L2M\ud800":1}]}`, status: 400},

	// Duplicate keys: the last scalar wins and null leaves it as is;
	// slices decode in place (a shorter array truncates, a longer one
	// re-exposes what the backing array held, null elements keep the old
	// value); a second "events" merges into the first's maps.
	{name: "duplicate model", body: `{"model":"nope","model":"cpi","row":` + okRow + `}`, status: 200},
	{name: "model then null", body: `{"model":"cpi","model":null,"row":` + okRow + `}`, status: 200},
	{name: "row then short row", body: `{"model":"cpi","row":` + okRow + `,"row":[1,2]}`, status: 400},
	{name: "short row then row", body: `{"model":"cpi","row":[1,2],"row":` + okRow + `}`, status: 200},
	{name: "row then null row", body: `{"model":"cpi","row":` + okRow + `,"row":null}`, status: 400},
	{name: "row then empty row", body: `{"model":"cpi","row":` + okRow + `,"row":[]}`, status: 400},
	{name: "row re-exposed by nulls", body: `{"model":"cpi","row":[1,2,3,4],"row":[5],"row":[null,null,null,null]}`, status: 200},
	{name: "rows truncated", body: `{"model":"cpi","rows":[` + okRow + `,[1,2]],"rows":[` + okRow + `]}`, status: 200},
	{name: "rows re-exposed", body: `{"model":"cpi","rows":[` + okRow + `,[1,2]],"rows":[` + okRow + `],"rows":[` + okRow + `,[null,null]]}`, status: 400},
	{name: "rows re-exposed and grown", body: `{"model":"cpi","rows":[` + okRow + `,[1,2]],"rows":[` + okRow + `],"rows":[` + okRow + `,[null,null,null,null]]}`, status: 200},
	{name: "events merged", body: `{"model":"cpi","events":[{"NoSuch":1}],"events":[{"L2M":1}]}`, status: 400},
	{name: "events reset by null", body: `{"model":"cpi","events":[{"NoSuch":1}],"events":null,"events":[{"L2M":1}]}`, status: 200},
	{name: "events reset by empty", body: `{"model":"cpi","events":[{"NoSuch":1}],"events":[],"events":[{"L2M":1}]}`, status: 200},
	{name: "events truncated", body: `{"model":"cpi","events":[{"L2M":1},{"NoSuch":1}],"events":[{"L1IM":1}]}`, status: 200},
	{name: "events re-exposed", body: `{"model":"cpi","events":[{"L2M":1},{"NoSuch":1}],"events":[{"L1IM":1}],"events":[{},{}]}`, status: 400},
	{name: "event element reset by null", body: `{"model":"cpi","events":[{"L2M":1},{"NoSuch":1}],"events":[{"L1IM":1},null]}`, status: 200},
	{name: "duplicate event name", body: `{"model":"cpi","events":[{"L2M":1,"L2M":2}]}`, status: 200},
	{name: "rows then row", body: `{"model":"cpi","rows":[` + okRow + `],"row":` + okRow + `}`, status: 400},
	{name: "null rows then row", body: `{"model":"cpi","rows":null,"row":` + okRow + `}`, status: 200},
	{name: "contributions then false", body: `{"model":"cpi","contributions":true,"contributions":false,"row":` + okRow + `}`, status: 200},
	{name: "contributions then null", body: `{"model":"cpi","contributions":true,"contributions":null,"row":` + okRow + `}`, status: 200, classify: 400},

	// Nulls for every field and every element.
	{name: "top-level null", body: `null`, status: 400},
	{name: "null model", body: `{"model":null,"row":` + okRow + `}`, status: 400},
	{name: "null row", body: `{"model":"cpi","row":null}`, status: 400},
	{name: "null rows", body: `{"model":"cpi","rows":null}`, status: 400},
	{name: "null events", body: `{"model":"cpi","events":null}`, status: 400},
	{name: "null contributions", body: `{"model":"cpi","contributions":null,"row":` + okRow + `}`, status: 200},
	{name: "null row elements", body: `{"model":"cpi","row":[null,null,null,null]}`, status: 200},
	{name: "null rows element", body: `{"model":"cpi","rows":[null]}`, status: 400},
	{name: "null in a rows element", body: `{"model":"cpi","rows":[[null,0,0,0],[0,null,0,0]]}`, status: 200},
	{name: "null events element", body: `{"model":"cpi","events":[null]}`, status: 200},
	{name: "null event rate", body: `{"model":"cpi","events":[{"L2M":null}]}`, status: 200},
	{name: "null then events element", body: `{"model":"cpi","events":[null,{"L2M":1}]}`, status: 200},

	// Row shapes and schema checks.
	{name: "empty row", body: `{"model":"cpi","row":[]}`, status: 400},
	{name: "empty rows", body: `{"model":"cpi","rows":[]}`, status: 400},
	{name: "empty rows element", body: `{"model":"cpi","rows":[[]]}`, status: 400},
	{name: "empty events", body: `{"model":"cpi","events":[]}`, status: 400},
	{name: "empty events element", body: `{"model":"cpi","events":[{}]}`, status: 200},
	{name: "no instances", body: `{"model":"cpi"}`, status: 400},
	{name: "short row", body: `{"model":"cpi","row":[0,0,0]}`, status: 400},
	{name: "ragged rows", body: `{"model":"cpi","rows":[` + okRow + `,[0,0,0]]}`, status: 400},
	{name: "long rows element", body: `{"model":"cpi","rows":[` + okRow + `,[0,0,0,0,0]]}`, status: 400},
	{name: "unknown event", body: `{"model":"cpi","events":[{"NoSuch":1}]}`, status: 400},
	{name: "unknown event in row 1", body: `{"model":"cpi","events":[{"L2M":1},{"NoSuch":1}]}`, status: 400},
	{name: "target named as an event", body: `{"model":"cpi","events":[{"CPI":1.5,"L2M":0.001}]}`, status: 200},
	{name: "two forms", body: `{"model":"cpi","row":` + okRow + `,"events":[{"L2M":1}]}`, status: 400},
	{name: "three forms", body: `{"model":"cpi","row":` + okRow + `,"rows":[` + okRow + `],"events":[{}]}`, status: 400},

	// Types and numbers.
	{name: "string element", body: `{"model":"cpi","row":["0",0,0,0]}`, status: 400},
	{name: "bool element", body: `{"model":"cpi","row":[true,0,0,0]}`, status: 400},
	{name: "out-of-range element", body: `{"model":"cpi","row":[1e400,0,0,0]}`, status: 400},
	{name: "object row", body: `{"model":"cpi","row":{"a":1}}`, status: 400},
	{name: "flat rows", body: `{"model":"cpi","rows":[1,2]}`, status: 400},
	{name: "events object", body: `{"model":"cpi","events":{"L2M":1}}`, status: 400},
	{name: "events element array", body: `{"model":"cpi","events":[[1]]}`, status: 400},
	{name: "string event rate", body: `{"model":"cpi","events":[{"L2M":"1"}]}`, status: 400},
	{name: "numeric model", body: `{"model":1,"row":` + okRow + `}`, status: 400},
	{name: "numeric contributions", body: `{"model":"cpi","row":` + okRow + `,"contributions":1}`, status: 400},
	{name: "top-level array", body: `[]`, status: 400},
	{name: "top-level string", body: `"x"`, status: 400},
	{name: "top-level number", body: `1`, status: 400},
	{name: "edge numbers", body: `{"model":"cpi","row":[-0,1E-7,5e-324,1.7976931348623157e308]}`, status: 200},
	{name: "underflow", body: `{"model":"cpi","row":[1e-400,0,0,0]}`, status: 200},
	{name: "leading zero", body: `{"model":"cpi","row":[01,0,0,0]}`, status: 400},
	{name: "trailing comma", body: `{"model":"cpi","row":[0,0,0,0,]}`, status: 400},
	{name: "bare minus", body: `{"model":"cpi","row":[-,0,0,0]}`, status: 400},
	{name: "unterminated", body: `{"model":"cpi","row":[0,0,0,0]`, status: 400},

	// Which failure wins: malformed, then missing model, then unknown
	// model, then forms/width/unknown event, then MaxBatch.
	{name: "missing model", body: `{"row":` + okRow + `}`, status: 400},
	{name: "empty model", body: `{"model":"","row":` + okRow + `}`, status: 400},
	{name: "unknown model beats width", body: `{"model":"nope","row":[1]}`, status: 404, code: ErrCodeNotFound},
	{name: "unknown version", body: `{"model":"cpi@v9","row":` + okRow + `}`, status: 404, code: ErrCodeNotFound},
	{name: "pinned version", body: `{"model":"cpi@v1","row":` + okRow + `}`, status: 200},
	{name: "invalid UTF-8 model", body: "{\"model\":\"cpi\xff\",\"row\":" + okRow + "}", status: 404, code: ErrCodeNotFound},
	{name: "malformed beats unknown model", body: `{"model":"nope","row":` + okRow + `,"bogus":1}`, status: 400},
	{name: "type error beats missing model", body: `{"row":["x"]}`, status: 400},
	{name: "contributions on an unknown model", body: `{"model":"nope","row":` + okRow + `,"contributions":true}`, status: 404, code: ErrCodeNotFound, classify: 400},
	{name: "model after rows", body: `{"row":[1],"model":"cpi"}`, status: 400},
	{name: "model after events", body: `{"events":[{"L2M":1}],"model":"cpi"}`, status: 200},
	{name: "MaxBatch rows", body: `{"model":"cpi","rows":[` + strings.Repeat(okRow+",", 7) + okRow + `]}`, status: 200},
	{name: "MaxBatch+1 rows", body: `{"model":"cpi","rows":[` + strings.Repeat(okRow+",", 8) + okRow + `]}`, status: 413, code: ErrCodeTooLarge},
	{name: "MaxBatch+1 events", body: `{"model":"cpi","events":[` + strings.Repeat("{},", 8) + `{}]}`, status: 413, code: ErrCodeTooLarge},
	{name: "width beats MaxBatch", body: `{"model":"cpi","rows":[` + strings.Repeat(okRow+",", 8) + `[0]]}`, status: 400},
	{name: "unknown event beats MaxBatch", body: `{"model":"cpi","events":[` + strings.Repeat("{},", 8) + `{"NoSuch":1}]}`, status: 400},
	{name: "unknown model beats MaxBatch", body: `{"model":"nope","rows":[` + strings.Repeat(okRow+",", 8) + okRow + `]}`, status: 404, code: ErrCodeNotFound},

	// Limits: whitespace, trailing data, nesting depth, body size.
	{name: "surrounding whitespace", body: " \t\r\n{\"model\":\"cpi\",\"row\":" + okRow + "} \n", status: 200},
	{name: "trailing garbage", body: `{"model":"cpi","row":` + okRow + `} x`, status: 400},
	{name: "trailing value", body: `{"model":"cpi","row":` + okRow + `}{}`, status: 400},
	{name: "trailing null", body: `{"model":"cpi","row":` + okRow + `} null`, status: 400},
	{name: "leading BOM", body: "\ufeff{\"model\":\"cpi\",\"row\":" + okRow + "}", status: 400},
	{name: "empty body", body: ``, status: 400},
	{name: "whitespace body", body: " \n", status: 400},
	{name: "nesting at the limit", big: true, body: `{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"model":"cpi","row":` + okRow + `}`, status: 400},
	{name: "nesting past the limit", big: true, body: `{"model":"cpi","row":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`, status: 400},
	{name: "deep nesting in rows", big: true, body: `{"model":"cpi","rows":` + strings.Repeat("[", 5000) + strings.Repeat("]", 5000) + `}`, status: 400},
	{name: "oversized value", body: `{"model":"cpi","rows":[` + strings.Repeat(okRow+",", 400) + okRow + `]}`, status: 413, code: ErrCodeTooLarge},
	{name: "oversized trailing whitespace", body: `{"model":"cpi","row":` + okRow + `}` + strings.Repeat(" ", 4096), status: 413, code: ErrCodeTooLarge},
	// Every body over MaxBodyBytes is a 413, whatever it holds. (The
	// encoding/json decoder answered 400 here: it stopped reading at the
	// syntax error, before the limit.)
	{name: "oversized body with an early syntax error", body: `{"model":x` + strings.Repeat(" ", 4096), status: 413, code: ErrCodeTooLarge},
	{name: "body at the limit", body: `{"model":"cpi","row":` + okRow + `}` + strings.Repeat(" ", 4096-len(`{"model":"cpi","row":`+okRow+`}`)), status: 200},
}

// TestPredictAdversarialBodies pins the status and error code of every
// adversarial body on both decoding routes.
func TestPredictAdversarialBodies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 8
	cfg.MaxBodyBytes = 4096
	s, _, _ := newTestServer(t, cfg)
	big := cfg
	big.MaxBodyBytes = 4 << 20
	sBig, _, _ := newTestServer(t, big)
	h, hBig := s.Handler(), sBig.Handler()

	for _, tc := range adversarialBodies {
		for _, path := range []string{"/v1/predict", "/v1/classify"} {
			want, code := tc.status, tc.code
			if path == "/v1/classify" && tc.classify != 0 {
				want, code = tc.classify, ""
			}
			if code == "" {
				code = ErrCodeBadRequest
			}
			hh := h
			if tc.big {
				hh = hBig
			}
			rec := post(hh, path, tc.body)
			if rec.Code != want {
				t.Errorf("%s %s: status %d, want %d (%.200s)", path, tc.name, rec.Code, want, rec.Body)
				continue
			}
			if want == http.StatusOK {
				continue
			}
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != code || env.Error.Message == "" {
				t.Errorf("%s %s: bad error envelope (want code %q): %.200s", path, tc.name, code, rec.Body)
			}
		}
	}
}

// cutBody is a request body that yields its bytes and then, instead of
// io.EOF, err: what a body read returns when the connection fails
// partway through.
type cutBody struct {
	r   io.Reader
	err error
}

func (b *cutBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = b.err
	}
	return n, err
}

// TestBodyReadErrors pins how every body-reading route answers a read
// that fails: a read cut off by the connection's read deadline is 408
// with the timeout code, whether it lands mid-value or after a complete
// one, and any other read failure stays 400.
func TestBodyReadErrors(t *testing.T) {
	s, _, d := newTestServer(t, streamConfig())
	h := s.Handler()
	deadline := &net.OpError{Op: "read", Net: "tcp", Err: os.ErrDeadlineExceeded}
	reset := &net.OpError{Op: "read", Net: "tcp", Err: errors.New("connection reset by peer")}
	predict := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 2))
	sample := strings.SplitAfter(streamTrace(2, 1, 100, 0, 7), "\n")[0]
	cases := []struct {
		path, body string
		err        error
		status     int
		code       string
	}{
		{"/v1/predict", predict[:20], deadline, http.StatusRequestTimeout, ErrCodeTimeout},
		{"/v1/predict", predict, deadline, http.StatusRequestTimeout, ErrCodeTimeout},
		{"/v1/predict", predict[:20], reset, http.StatusBadRequest, ErrCodeBadRequest},
		{"/v1/stream?model=cpi", sample[:20], deadline, http.StatusRequestTimeout, ErrCodeTimeout},
		{"/v1/stream?model=cpi", sample, deadline, http.StatusRequestTimeout, ErrCodeTimeout},
		{"/v1/stream?model=cpi", sample[:20], reset, http.StatusBadRequest, ErrCodeBadRequest},
		{"/v1/sessions/restore", `{"sessions":[`, deadline, http.StatusRequestTimeout, ErrCodeTimeout},
		{"/v1/sessions/restore", `{"sessions":[]}`, deadline, http.StatusRequestTimeout, ErrCodeTimeout},
		{"/v1/sessions/restore", `{"sessions":[`, reset, http.StatusBadRequest, ErrCodeBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, tc.path, &cutBody{strings.NewReader(tc.body), tc.err})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var env errorEnvelope
		if rec.Code != tc.status || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != tc.code {
			t.Errorf("%s after %d bytes, %v: %d %s, want %d with code %q",
				tc.path, len(tc.body), tc.err, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), tc.status, tc.code)
		}
	}
}

// oracleRequest is the encoding/json form of a /v1/predict or
// /v1/classify body: the decoder the hand-written codec replaced, kept
// as its oracle.
type oracleRequest struct {
	Model         string               `json:"model"`
	Row           []float64            `json:"row,omitempty"`
	Rows          [][]float64          `json:"rows,omitempty"`
	Events        []map[string]float64 `json:"events,omitempty"`
	Contributions bool                 `json:"contributions,omitempty"`
}

// oracleDecode is the replaced decode: a json.Decoder with
// DisallowUnknownFields, then nothing but whitespace after the value.
func oracleDecode(body []byte) (*oracleRequest, error) {
	var req oracleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("unexpected data after the JSON value")
	}
	return &req, nil
}

// oracleResolveRows is the replaced schema step, verbatim: whichever
// instance form the request used, as full-width instances.
func oracleResolveRows(req *oracleRequest, desc model.Description) ([]dataset.Instance, error) {
	forms := 0
	if req.Row != nil {
		forms++
	}
	if req.Rows != nil {
		forms++
	}
	if req.Events != nil {
		forms++
	}
	if forms != 1 {
		return nil, fmt.Errorf(`provide exactly one of "row", "rows" or "events"`)
	}
	width := len(desc.AttrNames)
	var rows []dataset.Instance
	switch {
	case req.Row != nil:
		rows = []dataset.Instance{req.Row}
	case req.Rows != nil:
		rows = make([]dataset.Instance, len(req.Rows))
		for i, r := range req.Rows {
			rows[i] = r
		}
	default:
		idx := make(map[string]int, width)
		for i, n := range desc.AttrNames {
			idx[n] = i
		}
		rows = make([]dataset.Instance, len(req.Events))
		for i, ev := range req.Events {
			row := make(dataset.Instance, width)
			for name, v := range ev {
				j, ok := idx[name]
				if !ok {
					return nil, fmt.Errorf("row %d: unknown event %q", i, name)
				}
				row[j] = v
			}
			rows[i] = row
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("no instances in request")
	}
	for i, r := range rows {
		if len(r) != width {
			return nil, fmt.Errorf("row %d has %d values, model schema has %d columns (including target %q)",
				i, len(r), width, desc.Target)
		}
	}
	return rows, nil
}

// routeOutcome is what a decoding route answers for a body up to the
// kernel: the status, the error code and, on 200, the rows and the
// contributions flag.
type routeOutcome struct {
	status  int
	code    string
	rows    []dataset.Instance
	contrib bool
}

func rejected(status int, code string) routeOutcome { return routeOutcome{status: status, code: code} }

// oracleRoute is the replaced request path's verdict on a body within
// the size limit, in its precedence order.
func oracleRoute(s *Server, body []byte, classify bool) routeOutcome {
	req, err := oracleDecode(body)
	if err != nil {
		return rejected(400, ErrCodeBadRequest)
	}
	if classify && req.Contributions {
		return rejected(400, ErrCodeBadRequest)
	}
	if req.Model == "" {
		return rejected(400, ErrCodeBadRequest)
	}
	e, err := s.reg.Get(req.Model)
	if err != nil {
		return rejected(404, ErrCodeNotFound)
	}
	rows, err := oracleResolveRows(req, e.Model.Describe())
	if err != nil {
		return rejected(400, ErrCodeBadRequest)
	}
	if len(rows) > s.cfg.MaxBatch {
		return rejected(413, ErrCodeTooLarge)
	}
	return routeOutcome{status: 200, rows: rows, contrib: req.Contributions}
}

// sameRows reports whether two row sets are bit-identical.
func sameRows(a, b []dataset.Instance) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzDecodePredict is the differential test of the request codec
// against the encoding/json path it replaced. For every body and both
// routes:
//   - within MaxBodyBytes, the handler answers the status and error code
//     of the old path, and on 200 the codec hands the kernel rows
//     bit-identical to the old path's, with the same contributions flag;
//   - over MaxBodyBytes, the answer is 413 whatever the body holds.
func FuzzDecodePredict(f *testing.F) {
	for _, tc := range adversarialBodies {
		if !tc.big {
			f.Add([]byte(tc.body))
		}
	}
	for _, seed := range []string{
		`{"model":"cpi","rows":[[0,1,2,3],[4,5,6,7]],"rows":[[null,8],null,[9,9,9,9]],"rows":[[null,null,null,null],[1,2,3,4],[null,null,null,null]]}`,
		`{"model":"cpi","row":[1,2],"rows":null,"row":[null,null,3,4]}`,
		`{"model":"cpi","events":[{"L2M":1,"NoSuch":2},{"L1IM":3}],"events":[null,{"L2M":4}]}`,
		`{"model":"cpi","events":[{"L2M":1}],"events":[{"L2M":null}]}`,
		`{"model":"c\u0070i@v1","ROWS":[[1e-7,-0,0.5,1E+2]],"Contributions":true}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := DefaultConfig()
	cfg.MaxBatch = 8
	cfg.MaxBodyBytes = 4096
	s, _, _ := newTestServer(f, cfg)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/predict", "/v1/classify"} {
			want := rejected(413, ErrCodeTooLarge)
			if int64(len(body)) <= cfg.MaxBodyBytes {
				want = oracleRoute(s, body, path == "/v1/classify")
			}
			rec := post(h, path, string(body))
			if rec.Code != want.status {
				t.Fatalf("%s answers %d, encoding/json path %d: %.200s", path, rec.Code, want.status, rec.Body)
			}
			if want.status != 200 {
				var env errorEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != want.code {
					t.Fatalf("%s: error envelope %.200s, want code %s", path, rec.Body, want.code)
				}
				continue
			}
			d := &requestDecoder{body: body}
			if err := d.decode(); err != nil {
				t.Fatal(err)
			}
			e, err := s.reg.Get(d.model)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := d.instances(e.Model.Describe(), e.cols)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(rows, want.rows) || d.contributions != want.contrib {
				t.Fatalf("codec rows %v contributions %v, encoding/json rows %v contributions %v",
					rows, d.contributions, want.rows, want.contrib)
			}
		}
	})
}

// tableISchema is the served schema — the Table I events plus the CPI
// target, 21 columns — with held-out rows of a reduced collection, the
// shape perfbench's predict workload sends.
type tableISchema struct {
	desc model.Description
	cols map[string]int
	rows []dataset.Instance
}

var tableIFixture = sync.OnceValues(func() (*tableISchema, error) {
	col, err := counters.CollectSuite(workload.SuiteScaled(0.05)[:4], counters.DefaultCollectConfig())
	if err != nil {
		return nil, err
	}
	d := col.Data
	fx := &tableISchema{desc: model.Description{Target: d.Attrs()[d.TargetIndex()].Name}, cols: map[string]int{}}
	for i, a := range d.Attrs() {
		fx.desc.AttrNames = append(fx.desc.AttrNames, a.Name)
		fx.cols[a.Name] = i
	}
	for i := 0; i < d.Len(); i++ {
		fx.rows = append(fx.rows, d.Row(i))
	}
	return fx, nil
})

func loadTableI(tb testing.TB) *tableISchema {
	tb.Helper()
	fx, err := tableIFixture()
	if err != nil {
		tb.Fatal(err)
	}
	return fx
}

// rowsBody is an n-row "rows" request; eventsBody is the same rows as
// named events (every non-target column).
func (fx *tableISchema) rowsBody(n int) []byte {
	b := []byte(`{"model":"cpi@v1","rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		r, _ := json.Marshal(fx.rows[i%len(fx.rows)])
		b = append(b, r...)
	}
	return append(b, "]}"...)
}

func (fx *tableISchema) eventsBody(n int) []byte {
	target := fx.cols[fx.desc.Target]
	b := []byte(`{"model":"cpi@v1","events":[`)
	for i := 0; i < n; i++ {
		ev := map[string]float64{}
		for j, v := range fx.rows[i%len(fx.rows)] {
			if j != target {
				ev[fx.desc.AttrNames[j]] = v
			}
		}
		if i > 0 {
			b = append(b, ',')
		}
		r, _ := json.Marshal(ev)
		b = append(b, r...)
	}
	return append(b, "]}"...)
}

// codecDecode runs the codec's whole decode — read, parse, resolve — on
// a decoder the caller owns.
func codecDecode(d *requestDecoder, rd *bytes.Reader, body []byte, fx *tableISchema) ([]dataset.Instance, error) {
	d.reset()
	rd.Reset(body)
	if err := d.read(rd, int64(len(body)), 1<<20); err != nil {
		return nil, err
	}
	if err := d.decode(); err != nil {
		return nil, err
	}
	return d.instances(fx.desc, fx.cols)
}

// BenchmarkPredictDecode compares the request codec with the
// encoding/json path it replaced (one op = one request body) on the
// 21-column served schema: a 64-row "rows" batch, the predict
// workload's heavy request, and a single-row named-events body, its
// light one.
func BenchmarkPredictDecode(b *testing.B) {
	fx := loadTableI(b)
	for _, bc := range []struct {
		name string
		body []byte
		rows int
	}{
		{"batch64", fx.rowsBody(64), 64},
		{"single", fx.eventsBody(1), 1},
	} {
		b.Run(bc.name+"/codec", func(b *testing.B) {
			d := new(requestDecoder)
			var rd bytes.Reader
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if rows, err := codecDecode(d, &rd, bc.body, fx); err != nil || len(rows) != bc.rows {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				req, err := oracleDecode(bc.body)
				if err != nil {
					b.Fatal(err)
				}
				if rows, err := oracleResolveRows(req, fx.desc); err != nil || len(rows) != bc.rows {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPredictDecodeAllocs is the codec's allocation gate: once a
// decoder's buffers have grown to a body's size, decoding it again
// allocates nothing, for 1, 64 or 512 rows in either form — the count
// must never grow with the row count.
func TestPredictDecodeAllocs(t *testing.T) {
	fx := loadTableI(t)
	d := new(requestDecoder)
	var rd bytes.Reader
	for _, form := range []string{"rows", "events"} {
		for _, n := range []int{1, 64, 512} {
			body := fx.rowsBody(n)
			if form == "events" {
				body = fx.eventsBody(n)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if rows, err := codecDecode(d, &rd, body, fx); err != nil || len(rows) != n {
					t.Fatalf("%s/%d: %d rows, %v", form, n, len(rows), err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s, %d rows: %v allocations per decode, want 0", form, n, allocs)
			}
		}
	}
}
