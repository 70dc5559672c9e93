// Package serve exposes trained CPI models as an HTTP JSON service: the
// paper's train-once / analyze-many oracle packaged behind a network API.
// A Registry maps (name, version) to any model.Model; the Server answers
//
//	POST /v1/predict   single + batch CPI prediction, optional per-event
//	                   contribution breakdown (coef*X/CPI, the paper's Eq. 4)
//	POST /v1/classify  leaf id + decision path — the paper's performance
//	                   classes (single-tree models only)
//	POST /v1/stream    NDJSON sample ingestion into a persistent monitor
//	                   session (phase boundaries + drift alarms), keyed
//	                   by model ref and the ?session= query parameter
//	GET  /v1/sessions  live monitor session listing with per-session stats
//	POST /v1/sessions/drain    remove all sessions and return their
//	                   serialized state (replica handoff, step 1)
//	POST /v1/sessions/restore  install a drained state dump (step 2)
//	GET  /v1/sessions/{id}/refutation  one session's per-relation
//	                   counter-consistency report ("-" = default session,
//	                   model addressed with ?model=)
//	GET  /v1/models    registry listing with model descriptions
//	GET  /v1/models/{ref}  one model's detail: description, source
//	                   path, classifiability, registered versions
//	GET  /v1/machines  the march machine-preset registry, with per-machine
//	                   registered-model counts
//	GET  /v1/machines/{name}  one machine's full declarative spec (the
//	                   same JSON document -march-file accepts)
//	GET  /v1/metrics.json  machine-readable counters: per-endpoint
//	                   request/error counts, latency histogram buckets,
//	                   cache and stream stats
//	GET  /healthz      liveness + model count
//	GET  /metrics      the same counters as a text exposition
//
// Every error response shares the envelope
// {"error":{"code","message"}} (see errors.go); clients branch on the
// stable code, never on message wording.
//
// The registry compiles every model at registration and rejects one
// that does not compile, so every
// predict request runs the zero-allocation PredictInto kernel of a
// flat-array form bit-identical to the pointer walk. Each request is
// evaluated on its own goroutine — concurrent requests, not
// intra-request fan-out, fill the cores — and the optional LRU cache
// keys on exact value bits, so it can never change a response. Request
// bodies are size-capped and hold exactly one JSON value; time limits
// belong to the connection (the http.Server's read and write deadlines,
// see cmd/serve), which bound every route alike.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/stream"
)

// Config holds the service knobs.
type Config struct {
	// Jobs is unused: every request is evaluated on its own goroutine.
	// It remains only so callers that still set it compile; it will be
	// removed.
	Jobs int
	// CacheSize bounds the LRU prediction cache (entries); 0 disables
	// caching.
	CacheSize int
	// MaxBodyBytes caps request body size.
	MaxBodyBytes int64
	// MaxBatch caps the number of rows per request.
	MaxBatch int
	// Stream tunes the /v1/stream monitor sessions (phase, drift and
	// refutation detectors).
	Stream stream.Config
	// SessionTTL evicts stream sessions idle for this long; 0 keeps
	// sessions forever (the pre-TTL behavior).
	SessionTTL time.Duration
	// Clock is the time source for session TTL bookkeeping; nil means
	// time.Now. Tests inject a fake clock to make eviction exact.
	Clock func() time.Time
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		CacheSize:    4096,
		MaxBodyBytes: 1 << 20, // 1 MiB
		MaxBatch:     4096,
		Stream:       stream.DefaultConfig(),
		SessionTTL:   15 * time.Minute,
	}
}

// Server serves the models in a Registry over HTTP.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *PredictionCache // nil when disabled
	metrics *metricsRegistry
	streams *streamSessions
}

// route is one endpoint: the method it serves, its mux pattern and its
// handler.
type route struct {
	method string
	path   string
	handle func(*Server, http.ResponseWriter, *http.Request)
}

// routes is the one route table: Handler mounts it, and the metrics
// registry and the 405 fallbacks derive from it.
var routes = []route{
	{"POST", "/v1/predict", (*Server).handlePredict},
	{"POST", "/v1/classify", (*Server).handleClassify},
	{"POST", "/v1/stream", (*Server).handleStream},
	{"GET", "/v1/sessions", (*Server).handleSessions},
	{"POST", "/v1/sessions/drain", (*Server).handleSessionsDrain},
	{"POST", "/v1/sessions/restore", (*Server).handleSessionsRestore},
	{"GET", "/v1/sessions/{id}/refutation", (*Server).handleSessionRefutation},
	{"GET", "/v1/models", (*Server).handleModels},
	{"GET", "/v1/models/{ref}", (*Server).handleModelDetail},
	{"GET", "/v1/machines", (*Server).handleMachines},
	{"GET", "/v1/machines/{name}", (*Server).handleMachineDetail},
	{"GET", "/v1/metrics.json", (*Server).handleMetricsJSON},
	{"GET", "/healthz", (*Server).handleHealthz},
	{"GET", "/metrics", (*Server).handleMetrics},
}

// allow is the route's Allow header value; a GET pattern also serves
// HEAD.
func (rt route) allow() string {
	if rt.method == "GET" {
		return "GET, HEAD"
	}
	return rt.method
}

// New creates a Server over a registry.
func New(reg *Registry, cfg Config) *Server {
	s := &Server{cfg: cfg, reg: reg}
	s.streams = newStreamSessions(cfg.SessionTTL, cfg.Clock)
	if cfg.CacheSize > 0 {
		s.cache = NewPredictionCache(cfg.CacheSize)
	}
	s.metrics = newMetricsRegistry(s.cache, reg.Len, reg.ModelsByMachine, s.streams)
	return s
}

// Handler returns the service's HTTP handler: the routed endpoints, each
// wrapped in per-endpoint instrumentation. Every route runs on the
// connection's goroutine and writes straight to it, so /v1/stream
// flushes its NDJSON incrementally. Bounding a stalled client is the
// serving http.Server's job (cmd/serve -timeout sets its read and write
// deadlines): closing the connection ends the handler's blocked read or
// write.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.method+" "+rt.path,
			s.instrument(rt.path, func(w http.ResponseWriter, r *http.Request) { rt.handle(s, w, r) }))
		// Method-generic fallback: the mux routes a wrong-method request
		// here instead of its own text/plain 405, so the rejection carries
		// the API's JSON error shape, an Allow header, and metrics.
		mux.Handle(rt.path, s.instrument(rt.path, methodNotAllowed(rt.allow())))
	}
	return mux
}

// methodNotAllowed rejects with 405 and the route's Allow header.
func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			"method %s not allowed; allowed: %s", r.Method, allow)
	}
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers behind the
// recorder can push partial NDJSON responses to the client.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the endpoint's request/error counters,
// in-flight gauge and latency histogram.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	em := s.metrics.endpoints[route]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		em.requests.Add(1)
		em.inFlight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			em.inFlight.Add(-1)
			em.latency.observe(time.Since(start))
			if rec.status >= 400 {
				em.errors.Add(1)
			}
		}()
		h(rec, r)
	})
}

// jsonBody is a response body encoded ahead of its status line, so a
// value JSON cannot represent (a NaN or infinite float) is answered as
// an error instead of an empty 200.
type jsonBody struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledBody caps the buffers jsonBodies keeps, so one large
// response does not stay pinned in the pool.
const maxPooledBody = 1 << 20

var jsonBodies = sync.Pool{New: func() any {
	b := new(jsonBody)
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// encodeJSON encodes v into a pooled body for sendJSON. On error the
// body is already back in the pool.
func encodeJSON(v any) (*jsonBody, error) {
	b := jsonBodies.Get().(*jsonBody)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		jsonBodies.Put(b)
		return nil, err
	}
	return b, nil
}

// sendJSON writes the status line and the encoded body, then returns the
// body to the pool.
func sendJSON(w http.ResponseWriter, status int, b *jsonBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
	if b.buf.Cap() <= maxPooledBody {
		jsonBodies.Put(b)
	}
}

// writeJSON answers with v as JSON, or with a 500 when v does not encode.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := encodeJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "encoding the response: %v", err)
		return
	}
	sendJSON(w, status, b)
}

type predictResponse struct {
	Model         string                 `json:"model"`
	N             int                    `json:"n"`
	Predictions   []float64              `json:"predictions"`
	Contributions [][]model.Contribution `json:"contributions,omitempty"`
}

// decodeBody decodes a size-capped body holding exactly one JSON value
// with encoding/json (the /v1/sessions/restore dump), writing the HTTP
// error itself on failure (see writeBodyError). Anything but whitespace
// after the value is malformed: a second value would otherwise be
// silently dropped.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if bodyStatus(err) == http.StatusBadRequest {
			err = errors.New("unexpected data after the JSON value")
		}
	}
	s.writeBodyError(w, fmt.Errorf("malformed request body: %w", err))
	return false
}

// instances resolves the decoded request's rows against the entry's
// schema and the batch limit, writing the HTTP error itself on failure.
// The rows alias the decoder's buffers until it is released.
func (s *Server) instances(w http.ResponseWriter, req *requestDecoder, e *Entry) []dataset.Instance {
	rows, err := req.instances(e.Model.Describe(), e.cols)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
		return nil
	}
	if len(rows) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
			"batch of %d rows exceeds limit %d", len(rows), s.cfg.MaxBatch)
		return nil
	}
	return rows
}

// lookup resolves the request's model reference, writing the HTTP error
// itself on failure.
func (s *Server) lookup(w http.ResponseWriter, ref string) *Entry {
	if ref == "" {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, `missing "model" reference`)
		return nil
	}
	e, err := s.reg.Get(ref)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "%v", err)
		return nil
	}
	return e
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	req := s.decodeRequest(w, r)
	if req == nil {
		return
	}
	defer req.release()
	e := s.lookup(w, req.model)
	if e == nil {
		return
	}
	rows := s.instances(w, req, e)
	if rows == nil {
		return
	}

	ref := e.Ref()
	resp := predictResponse{Model: ref, N: len(rows), Predictions: s.predictBatch(e.Model, ref, rows)}
	if req.contributions {
		resp.Contributions = make([][]model.Contribution, len(rows))
		for i, row := range rows {
			resp.Contributions[i] = e.Model.Contributions(row)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// predictBatch predicts every row through the model's batch kernel.
// Without a cache the kernel runs straight into the response buffer;
// with one, every row is hashed once and probed, the kernel runs only
// over the misses, and their values are scattered back and inserted
// under the same hashes: one hit or one miss per row. A hit needs the
// exact value bits, so dst[i] is bit-identical to Predict(rows[i])
// either way and the cache can never change a response.
func (s *Server) predictBatch(m servedModel, ref string, rows []dataset.Instance) []float64 {
	out := make([]float64, len(rows))
	if s.cache == nil {
		m.PredictInto(out, rows)
		return out
	}
	sc := missScratchPool.Get().(*missScratch)
	defer missScratchPool.Put(sc)
	sc.idx, sc.hash, sc.rows = sc.idx[:0], sc.hash[:0], sc.rows[:0]
	seed := refHash(ref)
	for i, row := range rows {
		h := rowHash(seed, row)
		if v, ok := s.cache.get(h, ref, row); ok {
			out[i] = v
			continue
		}
		sc.idx = append(sc.idx, i)
		sc.hash = append(sc.hash, h)
		sc.rows = append(sc.rows, row)
	}
	if len(sc.rows) > 0 {
		sc.vals = slices.Grow(sc.vals[:0], len(sc.rows))[:len(sc.rows)]
		m.PredictInto(sc.vals, sc.rows)
		for j, i := range sc.idx {
			out[i] = sc.vals[j]
			s.cache.put(sc.hash[j], ref, rows[i], sc.vals[j])
		}
	}
	clear(sc.rows) // the pool must not pin the request's rows
	return out
}

// missScratch is predictBatch's per-request miss list — row indices,
// hashes, rows and kernel output — pooled so that a request with the
// cache on allocates no more than one with it off.
type missScratch struct {
	idx  []int
	hash []uint64
	rows []dataset.Instance
	vals []float64
}

var missScratchPool = sync.Pool{New: func() any { return new(missScratch) }}

// classifier is the optional classification surface: single trees route
// an instance to one leaf (the paper's performance class); ensembles do
// not, and report 422 at /v1/classify.
type classifier interface {
	Classify(row dataset.Instance) (*mtree.Node, []mtree.PathStep)
}

type classifyStep struct {
	Event     string  `json:"event"`
	Threshold float64 `json:"threshold"`
	Above     bool    `json:"above"`
}

type classification struct {
	LeafID int `json:"leaf_id"`
	// Path is the decision path from the root; steps with above=true mark
	// the high-event-count tests that define the class.
	Path []classifyStep `json:"path"`
	// Prediction is the leaf model's (unsmoothed) estimate, the quantity
	// the paper's Eq. 4 decomposes.
	Prediction float64 `json:"prediction"`
	// TrainN and TrainMean describe the leaf's training population.
	TrainN    int     `json:"train_n"`
	TrainMean float64 `json:"train_mean"`
}

type classifyResponse struct {
	Model   string           `json:"model"`
	N       int              `json:"n"`
	Classes []classification `json:"classes"`
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	req := s.decodeRequest(w, r)
	if req == nil {
		return
	}
	defer req.release()
	if req.contributions {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, `"contributions" is a /v1/predict option`)
		return
	}
	e := s.lookup(w, req.model)
	if e == nil {
		return
	}
	cl, ok := e.Model.(classifier)
	if !ok {
		writeError(w, http.StatusUnprocessableEntity, ErrCodeUnsupported,
			"model %s (%s) does not expose leaf classes; classify requires a single tree",
			e.Ref(), e.Model.Describe().Kind)
		return
	}
	rows := s.instances(w, req, e)
	if rows == nil {
		return
	}

	resp := classifyResponse{Model: e.Ref(), N: len(rows), Classes: make([]classification, len(rows))}
	for i, row := range rows {
		leaf, path := cl.Classify(row)
		steps := make([]classifyStep, len(path))
		for j, st := range path {
			steps[j] = classifyStep{Event: st.Name, Threshold: st.Threshold, Above: st.Above}
		}
		resp.Classes[i] = classification{
			LeafID:     leaf.LeafID,
			Path:       steps,
			Prediction: leaf.Model.Predict(row),
			TrainN:     leaf.N,
			TrainMean:  leaf.Mean,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.List()})
}

// modelDetail is the GET /v1/models/{ref} response: the listing entry
// plus everything a traffic generator needs to shape payloads for the
// model — the schema to synthesize rows against and whether
// /v1/classify will answer.
type modelDetail struct {
	EntryInfo
	// Classifiable reports whether /v1/classify answers for this model
	// (single trees only).
	Classifiable bool `json:"classifiable"`
	// Versions lists every registered version of this name, sorted.
	Versions []string `json:"versions"`
}

func (s *Server) handleModelDetail(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("ref")
	e, err := s.reg.Get(ref)
	if err != nil {
		writeError(w, http.StatusNotFound, ErrCodeNotFound, "%v", err)
		return
	}
	_, classifiable := e.Model.(classifier)
	writeJSON(w, http.StatusOK, modelDetail{
		EntryInfo: EntryInfo{
			Name:        e.Name,
			Version:     e.Version,
			Latest:      s.reg.Latest(e.Name) == e.Version,
			Path:        e.Path,
			Description: e.Model.Describe(),
		},
		Classifiable: classifiable,
		Versions:     s.reg.Versions(e.Name),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": s.reg.Len(),
	})
}

// handleMetricsJSON is the machine-readable counter surface: the full
// snapshot including per-endpoint latency histogram buckets, which
// lets a client (cmd/loadgen) cross-validate its own counts against
// the server's.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.metrics.snapshot())
}

// handleMetrics renders the same snapshot as a flat text exposition
// (one `name{labels} value` line per counter) for eyeballs and
// scrapers that want text; /v1/metrics.json is the structured form.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.metrics.snapshot().renderText())
}
