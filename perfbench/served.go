package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mtree"
	"repro/internal/serve"
	"repro/internal/stream"
)

const (
	// batchRows is the row count of a predict batch request; streamChunk
	// and streamBulk are the sample counts of the two stream requests.
	batchRows   = 64
	streamChunk = 16
	streamBulk  = 64
	// heavyEvery: every fourth request of a client is the heavy kind,
	// so traffic is three light requests to one heavy one.
	heavyEvery = 4
	// Trace propagation headers: the client's round-trip span and its
	// request id, read by the server-side span.
	hdrParent = "X-Perfbench-Parent"
	hdrReq    = "X-Perfbench-Req"
)

// servedKinds are the two served workloads; requestKinds names each
// one's light and heavy request in the per-layer metrics.
var (
	servedKinds  = []string{"predict", "stream"}
	requestKinds = map[string][2]string{"predict": {"single", "batch"}, "stream": {"stream", "stream_bulk"}}
)

// server is the served model behind a loopback listener, built the way
// cmd/serve -demo builds it, with a span hook around the service handler.
type server struct {
	ref   *mtree.CompiledTree // the in-process reference evaluator
	pay   *payload
	cfg   serve.Config
	h     http.Handler
	hs    *http.Server
	url   string
	done  chan error
	trace atomic.Pointer[Recorder] // nil while untraced
}

// startServer trains the served model on the frozen core2 collection,
// cuts the payload from sections collected at the run's payload seed,
// and serves on 127.0.0.1 at a free port.
func startServer(seed int64, jobs int, chk *checks) (*server, error) {
	col, err := collect(trainSeed, jobs)
	if err != nil {
		return nil, fmt.Errorf("training collection: %w", err)
	}
	chk.expect(hashCollection(col) == goldenCollectHash, "training collection hash differs from the golden hash")
	tree, err := mtree.Build(col.Data, servedTreeConfig(col.Data.Len(), jobs))
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	tree.Machine = collectConfig(trainSeed, jobs).Machine
	reg := serve.NewRegistry()
	if err := reg.Register(servedName, "v1", tree, ""); err != nil {
		return nil, err
	}
	held, err := collect(payloadSeed(seed), jobs)
	if err != nil {
		return nil, fmt.Errorf("payload collection: %w", err)
	}
	pay, err := newPayload(held)
	if err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	s := &server{ref: mtree.Compile(tree), pay: pay, cfg: serve.DefaultConfig(), done: make(chan error, 1)}
	s.cfg.Jobs = jobs
	s.h = serve.New(reg, s.cfg).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// ServeHTTP records a serve.handler span around the service handler
// while a trace is active.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.trace.Load()
	if rec == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
	req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	start := time.Now()
	s.h.ServeHTTP(w, r)
	rec.Add(rec.ID(), parent, req, "serve.handler", start, time.Now())
}

// close stops the listener and waits for the serve loop to return.
func (s *server) close() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// op is one request of a client's deterministic sequence. For predict,
// a is the client's row counter at the first row; for stream, a is the
// session index and b the timeline position of the first sample.
type op struct {
	heavy bool
	a     uint64
	b     uint32
	n     int
	path  string
	ctype string
	body  []byte
}

// generator yields a client's request sequence.
type generator interface {
	next(dst []byte) op
}

// predictGen: client c of nc sends three single-row named-events
// requests, then one batch of batchRows full-width rows. Row t of client
// c is payload sequence number t*nc+c, so no two requests of the run
// share a row.
type predictGen struct {
	pay    *payload
	c, nc  uint64
	k, t   uint64
	seqBuf []uint64
}

func (g *predictGen) seq(t uint64) uint64 { return t*g.nc + g.c }

func (g *predictGen) next(dst []byte) op {
	o := op{path: "/v1/predict", ctype: "application/json", a: g.t}
	g.k++
	if g.k%heavyEvery != 0 {
		o.n = 1
		o.body = g.pay.singleBody(dst, g.seq(g.t))
	} else {
		o.heavy, o.n = true, batchRows
		g.seqBuf = g.seqBuf[:0]
		for i := uint64(0); i < batchRows; i++ {
			g.seqBuf = append(g.seqBuf, g.seq(g.t+i))
		}
		o.body = g.pay.batchBody(dst, g.seqBuf)
	}
	g.t += uint64(o.n)
	return o
}

// streamGen: client c owns the sessions s with s mod nc == c and visits
// them round robin; each session's fourth request carries streamBulk
// samples, the others streamChunk, continuing its looped timeline.
type streamGen struct {
	pay   *payload
	owned []int
	rr    int
	count []int // per session
	pos   []int // per session, next timeline position
}

func newStreamGen(pay *payload, c, nc int) *streamGen {
	g := &streamGen{pay: pay, count: make([]int, len(pay.sessions)), pos: make([]int, len(pay.sessions))}
	for s := c; s < len(pay.sessions); s += nc {
		g.owned = append(g.owned, s)
	}
	return g
}

func (g *streamGen) next(dst []byte) op {
	s := g.owned[g.rr%len(g.owned)]
	g.rr++
	g.count[s]++
	o := op{a: uint64(s), b: uint32(g.pos[s]), n: streamChunk, ctype: "application/x-ndjson"}
	if g.count[s]%heavyEvery == 0 {
		o.heavy, o.n = true, streamBulk
	}
	o.path = "/v1/stream?model=" + url.QueryEscape(servedRef) + "&session=" + url.QueryEscape(g.pay.sessions[s].bench)
	o.body = g.pay.chunkBody(dst, s, g.pos[s], o.n)
	g.pos[s] = (g.pos[s] + o.n) % len(g.pay.sessions[s].lines)
	return o
}

// client is one closed-loop caller with its own keep-alive connection.
// Every response is appended to the client's spill file, so checking
// happens after the timed window and stored replies do not count
// against the process's memory.
type client struct {
	kind  string // "predict" or "stream"
	hc    *http.Client
	gen   generator
	body  []byte
	resp  bytes.Buffer
	f     *os.File
	spill *bufio.Writer
}

func newClient(kind string, gen generator, path string) (*client, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{kind: kind, hc: &http.Client{Transport: tr}, gen: gen, f: f, spill: bufio.NewWriterSize(f, 1<<20)}, nil
}

// phase is what the clients saw in one closed-loop window.
type phase struct {
	kind       string
	index      int // in the run's windows, as stored in the spill records
	wall       time.Duration
	cpu        time.Duration // process CPU time, user and system
	mem        []memSample
	requests   int // responses received
	statusErrs int // responses with status >= 400
	transErrs  int // requests without a response
	itemsSent  int // rows or samples in the requests
	allocBytes uint64
	gcCycles   uint32
	before     *serverMetrics
	after      *serverMetrics
}

// runPhase drives every client for d; a client finishes the request it
// has in flight. Requests are stored tagged with the phase index id.
// rec, if set, receives a round-trip span per request and the server
// records the matching handler span.
func runPhase(s *server, clients []*client, id int, d time.Duration, rec *Recorder) (*phase, error) {
	before, err := fetchMetrics(s.url)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	s.trace.Store(rec)
	per := make([]phase, len(clients))
	errs := make([]error, len(clients))
	start := time.Now()
	mem := startMemSampler(start)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = c.loop(s.url, id, start, d, rec, &per[i])
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	samples := mem.finish()
	s.trace.Store(nil)
	runtime.ReadMemStats(&ms1)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	after, err := fetchMetrics(s.url)
	if err != nil {
		return nil, err
	}
	out := &phase{kind: clients[0].kind, index: id, wall: wall, cpu: cpu, mem: samples, before: before, after: after,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc, gcCycles: ms1.NumGC - ms0.NumGC}
	for _, p := range per {
		out.requests += p.requests
		out.statusErrs += p.statusErrs
		out.transErrs += p.transErrs
		out.itemsSent += p.itemsSent
	}
	return out, nil
}

func (c *client) loop(base string, id int, t0 time.Time, d time.Duration, rec *Recorder, st *phase) error {
	for time.Since(t0) < d {
		o := c.gen.next(c.body[:0])
		c.body = o.body
		req, err := http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", o.ctype)
		reqID, spanID := rec.ID(), rec.ID()
		if rec != nil {
			req.Header.Set(hdrParent, strconv.FormatUint(spanID, 10))
			req.Header.Set(hdrReq, strconv.FormatUint(reqID, 10))
		}
		c.resp.Reset()
		status := 0
		start := time.Now()
		resp, err := c.hc.Do(req)
		if err == nil {
			_, err = c.resp.ReadFrom(resp.Body)
			resp.Body.Close()
			if err == nil {
				status = resp.StatusCode
			}
		}
		end := time.Now()
		if rec != nil {
			rec.Add(spanID, 0, reqID, roundTripSpan(c.kind, o.heavy), start, end)
		}

		st.itemsSent += o.n
		switch {
		case status == 0:
			st.transErrs++
		case status >= 400:
			st.requests++
			st.statusErrs++
		default:
			st.requests++
		}
		r := record{op: o, phase: id, status: status, at: end.Sub(t0), dur: end.Sub(start)}
		if err := c.writeSpill(&r); err != nil {
			return err
		}
	}
	return nil
}

// record is one request as its client saw it: the op, the window it
// belongs to, the response status (0 = no response), when it completed
// since the window started and how long it took.
type record struct {
	op
	phase   int
	status  int
	at, dur time.Duration
}

// Spill records: phase(1) heavy(1) status(2) a(8) b(4) n(4) at(8) dur(8)
// len(4), then the response body. Timings go to the spill too, so the
// window holds no per-request state in memory.
const spillHeader = 40

func (c *client) writeSpill(r *record) error {
	var h [spillHeader]byte
	h[0] = byte(r.phase)
	if r.heavy {
		h[1] = 1
	}
	binary.LittleEndian.PutUint16(h[2:], uint16(r.status))
	binary.LittleEndian.PutUint64(h[4:], r.a)
	binary.LittleEndian.PutUint32(h[12:], r.b)
	binary.LittleEndian.PutUint32(h[16:], uint32(r.n))
	binary.LittleEndian.PutUint64(h[20:], uint64(r.at))
	binary.LittleEndian.PutUint64(h[28:], uint64(r.dur))
	binary.LittleEndian.PutUint32(h[36:], uint32(c.resp.Len()))
	if _, err := c.spill.Write(h[:]); err != nil {
		return err
	}
	_, err := c.spill.Write(c.resp.Bytes())
	return err
}

// finish flushes and closes the spill file.
func (c *client) finish() error {
	c.hc.CloseIdleConnections()
	err := c.spill.Flush()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replay reads a spill file back, calling fn for every record.
func replay(path string, fn func(r *record, body []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var h [spillHeader]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, h[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		r := record{phase: int(h[0]), status: int(binary.LittleEndian.Uint16(h[2:])),
			at: time.Duration(binary.LittleEndian.Uint64(h[20:])), dur: time.Duration(binary.LittleEndian.Uint64(h[28:]))}
		r.heavy, r.a, r.b = h[1] == 1, binary.LittleEndian.Uint64(h[4:]), binary.LittleEndian.Uint32(h[12:])
		r.n = int(binary.LittleEndian.Uint32(h[16:]))
		n := binary.LittleEndian.Uint32(h[36:])
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return err
		}
		if err := fn(&r, body); err != nil {
			return err
		}
	}
}

// serverMetrics is the slice of /v1/metrics.json the reconciliation reads.
type serverMetrics struct {
	Endpoints map[string]struct {
		Requests uint64 `json:"requests"`
		Errors   uint64 `json:"errors"`
	} `json:"endpoints"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Streams struct {
		Sessions int    `json:"sessions"`
		Accepted uint64 `json:"accepted"`
		Scored   uint64 `json:"scored"`
	} `json:"streams"`
}

func getJSON(u string, v any) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func fetchMetrics(base string) (*serverMetrics, error) {
	var m serverMetrics
	if err := getJSON(base+"/v1/metrics.json", &m); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &m, nil
}

// reconcile checks the client's counts against the server's counter
// deltas over the window, exactly.
func reconcile(p *phase, route string, chk *checks) {
	b, a := p.before.Endpoints[route], p.after.Endpoints[route]
	chk.expect(p.transErrs == 0, "%s: %d requests got no response", route, p.transErrs)
	chk.expect(a.Requests-b.Requests == uint64(p.requests),
		"%s: server counted %d requests, clients got %d responses", route, a.Requests-b.Requests, p.requests)
	chk.expect(a.Errors-b.Errors == uint64(p.statusErrs),
		"%s: server counted %d errors, client saw %d", route, a.Errors-b.Errors, p.statusErrs)
	switch route {
	case "/v1/predict":
		lookups := p.after.cacheLookups() - p.before.cacheLookups()
		chk.expect(lookups == uint64(p.itemsSent), "cache lookups %d, rows sent %d", lookups, p.itemsSent)
	case "/v1/stream":
		acc := p.after.Streams.Accepted - p.before.Streams.Accepted
		scored := p.after.Streams.Scored - p.before.Streams.Scored
		chk.expect(acc == uint64(p.itemsSent) && scored == acc,
			"stream accepted %d, scored %d, samples sent %d", acc, scored, p.itemsSent)
	}
}

func (m *serverMetrics) cacheLookups() uint64 { return m.Cache.Hits + m.Cache.Misses }

// roundTripSpan names the client's span of one request.
func roundTripSpan(kind string, heavy bool) string {
	if heavy {
		return "nethttp.roundtrip." + requestKinds[kind][1]
	}
	return "nethttp.roundtrip." + requestKinds[kind][0]
}

// spillPath is the spill file of client i of a kind.
func spillPath(dir, kind string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("responses-%s-%d.bin", kind, i))
}

// newClients builds nc clients of a kind with its generators.
func newClients(s *server, kind, dir string, nc int) ([]*client, error) {
	clients := make([]*client, nc)
	for i := range clients {
		var gen generator
		if kind == "predict" {
			gen = &predictGen{pay: s.pay, c: uint64(i), nc: uint64(nc)}
		} else {
			gen = newStreamGen(s.pay, i, nc)
		}
		c, err := newClient(kind, gen, spillPath(dir, kind, i))
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	return clients, nil
}

// predictOK checks one stored predict response of client c: status
// 200, one prediction per row, each bit-equal to the reference
// evaluator on the row that was sent.
func (s *server) predictOK(c, nc int, r *record, body []byte) bool {
	var resp struct {
		Model       string    `json:"model"`
		N           int       `json:"n"`
		Predictions []float64 `json:"predictions"`
	}
	ok := r.status == http.StatusOK && json.Unmarshal(body, &resp) == nil &&
		resp.Model == servedRef && resp.N == r.n && len(resp.Predictions) == r.n
	for i := 0; ok && i < r.n; i++ {
		row := s.pay.row((r.a+uint64(i))*uint64(nc) + uint64(c))
		ok = resp.Predictions[i] == s.ref.Predict(row)
	}
	return ok
}

// streamTally counts what the stream responses carried.
type streamTally struct {
	samples, events, bytes int
}

// streamOK checks one stored stream response: status 200, no error
// event, one sample event per sample sent with a prediction bit-equal to
// the reference evaluator, and a summary that ingested them all.
func (s *server) streamOK(t *streamTally, r *record, body []byte) bool {
	sess := &s.pay.sessions[r.a]
	t.samples += r.n
	t.bytes += len(body)
	ok := r.status == http.StatusOK
	got, summary := 0, false
	for ok && len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		var ev struct {
			Type      string  `json:"type"`
			Predicted float64 `json:"predicted"`
			Ingested  int     `json:"ingested"`
		}
		if json.Unmarshal(line, &ev) != nil {
			return false
		}
		switch ev.Type {
		case "summary":
			summary = ev.Ingested == r.n
		case "error":
			ok = false
		case "sample":
			row := sess.rows[(int(r.b)+got)%len(sess.rows)]
			ok = ev.Predicted == s.ref.Predict(row)
			got++
			t.events++
		default:
			t.events++
		}
	}
	return ok && summary && got == r.n
}

// checkSessions requires one session per benchmark, each still
// consistent: clean simulator counters never violate a relation.
func checkSessions(s *server, chk *checks) error {
	var list struct {
		Sessions []struct {
			Model   string `json:"model"`
			Session string `json:"session"`
			Stats   struct {
				Refutation struct {
					Verdict string `json:"verdict"`
				} `json:"refutation"`
			} `json:"stats"`
		} `json:"sessions"`
	}
	if err := getJSON(s.url+"/v1/sessions", &list); err != nil {
		return err
	}
	chk.expect(len(list.Sessions) == len(s.pay.sessions), "%d sessions live, want %d", len(list.Sessions), len(s.pay.sessions))
	for _, ss := range list.Sessions {
		chk.expect(ss.Stats.Refutation.Verdict == "consistent", "session %s ended %q", ss.Session, ss.Stats.Refutation.Verdict)
	}
	return nil
}

// streamConfig is the processor configuration the server gives every
// session.
func (s *server) streamConfig() stream.Config {
	cfg := s.cfg.Stream
	cfg.Jobs = s.cfg.Jobs
	return cfg
}
