package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/phases"
	"repro/internal/stream"
)

// layerSamplesPerSession is how much of each session's timeline the
// isolated stream-layer timings replay.
const layerSamplesPerSession = 1024

// servedRun drives one server with closed-loop clients of either served
// kind. Every window's responses are spilled and checked by finish,
// after all windows have run.
type servedRun struct {
	o       options
	srv     *server
	clients map[string][]*client
	phases  []*phase
	traced  map[string]*phase // the traced window of each kind
	rec     *Recorder
}

func newServedRun(o options, srv *server, rec *Recorder) *servedRun {
	return &servedRun{o: o, srv: srv, clients: map[string][]*client{}, traced: map[string]*phase{}, rec: rec}
}

// window runs the kind's clients for d, traced or not, and reconciles
// the window with the server's counters.
func (r *servedRun) window(kind string, d time.Duration, traced bool, chk *checks) (*phase, error) {
	clients := r.clients[kind]
	if clients == nil {
		var err error
		if clients, err = newClients(r.srv, kind, r.o.dir, r.o.jobs); err != nil {
			return nil, err
		}
		r.clients[kind] = clients
	}
	var rec *Recorder
	if traced {
		rec = r.rec
	}
	p, err := runPhase(r.srv, clients, len(r.phases), d, rec)
	if err != nil {
		return nil, err
	}
	reconcile(p, "/v1/"+kind, chk)
	chk.ops += p.requests + p.transErrs
	chk.opsFailed += p.statusErrs + p.transErrs
	r.phases = append(r.phases, p)
	if traced {
		r.traced[kind] = p
	}
	return p, nil
}

// finish checks the stream sessions, stops the clients and the server,
// then checks every stored response and returns each window's timings.
func (r *servedRun) finish(chk *checks) ([][]sample, streamTally, error) {
	var err error
	if r.clients["stream"] != nil {
		err = checkSessions(r.srv, chk)
	}
	for _, cs := range r.clients {
		for _, c := range cs {
			err = errors.Join(err, c.finish())
		}
	}
	ops := make([][]sample, len(r.phases))
	var tally streamTally
	if err = errors.Join(err, r.srv.close()); err != nil {
		return nil, tally, err
	}
	for _, kind := range servedKinds {
		bad := 0
		for c := range r.clients[kind] {
			path := spillPath(r.o.dir, kind, c)
			err = errors.Join(err, replay(path, func(rc *record, body []byte) error {
				if rc.status == http.StatusOK {
					ops[rc.phase] = append(ops[rc.phase], sample{at: rc.at, dur: rc.dur, heavy: rc.heavy, items: rc.n})
				}
				ok := false
				if kind == "predict" {
					ok = r.srv.predictOK(c, len(r.clients[kind]), rc, body)
				} else {
					ok = r.srv.streamOK(&tally, rc, body)
				}
				if !ok {
					bad++
				}
				return nil
			}), os.Remove(path))
		}
		if r.clients[kind] != nil {
			chk.expect(bad == 0, "%d %s responses failed verification", bad, kind)
		}
	}
	return ops, tally, err
}

// otherKind is the served kind a served workload does not run itself.
func otherKind(kind string) string {
	if kind == "predict" {
		return "stream"
	}
	return "predict"
}

// benchServed measures the predict or stream workload: nproc closed-loop
// clients, one keep-alive connection each, against the served model. A
// traced run then traces its own kind, the other served kind and the
// offline layers, so that it reports every per-layer metric.
func benchServed(o options, chk *checks) (*result, error) {
	srv, times, err := timedSetups(func() (*server, error) {
		return startServer(o.seed, o.jobs, chk)
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	var rec *Recorder
	if o.trace {
		rec = NewRecorder()
	}
	sr := newServedRun(o, srv, rec)
	// Return set-up's garbage to the OS, so the window's memory footprint
	// starts from what the workload itself holds.
	debug.FreeOSMemory()
	win, err := sr.window(o.workload, warmup, false, chk)
	if err == nil {
		win, err = sr.window(o.workload, o.window(), false, chk)
	}
	if err == nil && o.trace {
		_, err = sr.window(o.workload, o.ownTraced(), true, chk)
		other := otherKind(o.workload)
		if err == nil {
			_, err = sr.window(other, warmup, false, chk)
		}
		if err == nil {
			_, err = sr.window(other, o.otherTraced(), true, chk)
		}
	}
	res := &result{setup: times, layers: map[string]float64{}}
	res.noteRSS(o)
	if err != nil {
		return nil, errors.Join(err, sr.abort())
	}
	ops, tally, err := sr.finish(chk)
	if err != nil {
		return nil, err
	}

	own := ops[win.index]
	res.e2e = windowMetrics(win.wall, own)
	res.e2e["setup_s"] = Median(times)
	res.noteLiveHeap(o, win.wall, win.mem)
	res.info = append(res.info, describe(win.wall, own)...)
	items := 0
	for _, op := range own {
		items += op.items
	}
	res.info = append(res.info, fmt.Sprintf("cpu: %.4g us per item, %.1f%% of %d CPUs busy",
		float64(win.cpu)/float64(time.Microsecond)/float64(items), 100*win.cpu.Seconds()/win.wall.Seconds()/float64(o.jobs), o.jobs))
	if o.trace {
		tw := sr.traced[o.workload]
		res.tracedE2E = windowMetrics(tw.wall, ops[tw.index])
		if err := res.servedLayers(sr, tally); err != nil {
			return nil, err
		}
		if _, err := res.offlineLayerPasses(o, rec, o.otherTraced(), chk); err != nil {
			return nil, err
		}
		if err := res.writeSpans(o, rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// servedTracedLayers starts a server of its own for a run whose workload
// does not serve, and traces a window of each served kind on it.
func (r *result) servedTracedLayers(o options, rec *Recorder, chk *checks) error {
	srv, err := startServer(o.seed, o.jobs, chk)
	if err != nil {
		return err
	}
	sr := newServedRun(o, srv, rec)
	for _, kind := range servedKinds {
		if _, err = sr.window(kind, warmup, false, chk); err == nil {
			_, err = sr.window(kind, o.otherTraced(), true, chk)
		}
		if err != nil {
			return errors.Join(err, sr.abort())
		}
	}
	_, tally, err := sr.finish(chk)
	if err != nil {
		return err
	}
	return r.servedLayers(sr, tally)
}

// abort stops the clients and the server after a failed window and
// removes the spill files.
func (r *servedRun) abort() error {
	var err error
	for kind, cs := range r.clients {
		for i, c := range cs {
			err = errors.Join(err, c.finish(), os.Remove(spillPath(r.o.dir, kind, i)))
		}
	}
	return errors.Join(err, r.srv.close())
}

// describe reports the pooled window: counts and p99, for information.
func describe(wall time.Duration, ops []sample) []string {
	var light, heavy []float64
	items := 0
	sl := newSlices(wall)
	perSlice := make([]int, sl.n)
	for _, o := range ops {
		perSlice[sl.index(o.at)] += o.items
		us := float64(o.dur) / float64(time.Microsecond)
		if o.heavy {
			heavy = append(heavy, us)
		} else {
			light = append(light, us)
		}
		items += o.items
	}
	return []string{
		fmt.Sprintf("window %.3f s in %d slices, %d items answered, per slice %v", wall.Seconds(), sl.n, items, perSlice),
		fmt.Sprintf("light: %d requests, pooled p50 %.6g p90 %.6g p99 %.6g us (p99 for information)",
			len(light), Percentile(light, 0.5), Percentile(light, 0.9), Percentile(light, 0.99)),
		fmt.Sprintf("heavy: %d requests, pooled p50 %.6g p90 %.6g p99 %.6g us (p99 for information)",
			len(heavy), Percentile(heavy, 0.5), Percentile(heavy, 0.9), Percentile(heavy, 0.99)),
	}
}

// servedLayers derives the per-layer metrics of both served kinds from
// their traced windows and the isolated layer timings.
func (r *result) servedLayers(sr *servedRun, tally streamTally) error {
	spans := sr.rec.Spans()
	kids := ChildrenOf(spans)
	byName := map[string]string{}
	for _, kind := range servedKinds {
		for _, heavy := range []bool{false, true} {
			byName[roundTripSpan(kind, heavy)] = requestKinds[kind][btoi(heavy)]
		}
	}
	handler := map[string][]float64{}
	self := map[string][]float64{}
	unmatched := 0
	for _, s := range spans {
		k, ok := byName[s.Name]
		if !ok {
			continue
		}
		ch := kids[s.ID]
		if len(ch) != 1 {
			unmatched++
			continue
		}
		handler[k] = append(handler[k], float64(ch[0].Dur())/1e3)
		self[k] = append(self[k], float64(SelfTime(s, ch))/1e3)
	}
	if unmatched > 0 {
		return fmt.Errorf("%d round trips without exactly one handler span", unmatched)
	}
	for _, k := range byName {
		r.layers["serve.handler_us."+k] = Median(handler[k])
		r.layers["nethttp.self_us."+k] = Median(self[k])
	}
	for _, kind := range servedKinds {
		tw := sr.traced[kind]
		r.layers["runtime.alloc_kb_per_req."+kind] = float64(tw.allocBytes) / 1024 / float64(tw.requests)
		r.layers["runtime.gc_cycles_per_kreq."+kind] = float64(tw.gcCycles) * 1000 / float64(tw.requests)
	}

	srv := sr.srv
	predictNs, intoNs := kernelTimings(srv.ref, srv.pay.rows)
	r.layers["mtree.predict_ns"] = predictNs
	r.layers["mtree.predict_into_ns_per_row"] = intoNs
	r.layers["serve.self_us.batch"] = r.layers["serve.handler_us.batch"] - intoNs*batchRows/1e3
	tw := sr.traced["predict"]
	lookups := tw.after.cacheLookups() - tw.before.cacheLookups()
	hits := tw.after.Cache.Hits - tw.before.Cache.Hits
	r.layers["serve.cache_hit_ratio"] = float64(hits) / float64(lookups)
	r.layerInfo = append(r.layerInfo, fmt.Sprintf("cache: %d hits of %d lookups in the traced predict window", hits, lookups))

	cfg := srv.streamConfig()
	off := cfg
	off.Refute.Disabled = true
	var on, without []float64
	for i := 0; i < 3; i++ {
		a, err := ingestNs(srv, cfg)
		if err != nil {
			return err
		}
		b, err := ingestNs(srv, off)
		if err != nil {
			return err
		}
		on, without = append(on, a), append(without, b)
	}
	ingest := Median(on)
	r.layers["stream.ingest_ns_per_sample"] = ingest
	r.layers["refute.share"] = (ingest - Median(without)) / ingest
	r.layers["phases.feed_ns_per_sample"] = phasesFeedNs(srv, cfg)
	r.layers["serve.self_us.stream"] = r.layers["serve.handler_us.stream"] - ingest*streamChunk/1e3
	r.layers["serve.self_us.stream_bulk"] = r.layers["serve.handler_us.stream_bulk"] - ingest*streamBulk/1e3
	r.layers["stream.events_per_sample"] = float64(tally.events) / float64(tally.samples)
	r.layers["stream.response_bytes_per_sample"] = float64(tally.bytes) / float64(tally.samples)
	r.layers["shard.sessions"] = float64(sr.traced["stream"].after.Streams.Sessions)
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kernelSink keeps the timed kernel calls from being optimized away.
var kernelSink float64

// kernelTimings times the compiled tree alone on the payload rows: ns
// per single-row Predict and per row of a batchRows PredictInto sweep.
func kernelTimings(ref *mtree.CompiledTree, rows []dataset.Instance) (predictNs, intoNsPerRow float64) {
	const reps = 200
	dst := make([]float64, batchRows)
	batches := len(rows) / batchRows
	var per, into []float64
	for r := 0; r < reps; r++ {
		t := time.Now()
		for _, row := range rows {
			kernelSink += ref.Predict(row)
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(len(rows)))
		t = time.Now()
		for b := 0; b < batches; b++ {
			ref.PredictInto(dst, rows[b*batchRows:(b+1)*batchRows])
		}
		into = append(into, float64(time.Since(t).Nanoseconds())/float64(batches*batchRows))
		kernelSink += dst[0]
	}
	return Median(per), Median(into)
}

// ingestNs feeds every session's timeline to a fresh stream.Processor
// in the requests' chunking (IngestChecked per sample, Flush per
// request, as the server does) and returns ns per sample.
func ingestNs(srv *server, cfg stream.Config) (float64, error) {
	var total time.Duration
	n := 0
	for si := range srv.pay.sessions {
		sess := &srv.pay.sessions[si]
		p, err := stream.NewProcessor(srv.ref, cfg)
		if err != nil {
			return 0, err
		}
		chunk := make([]stream.Sample, 0, streamBulk)
		for k, pos := 1, 0; pos < layerSamplesPerSession; k++ {
			m := streamChunk
			if k%heavyEvery == 0 {
				m = streamBulk
			}
			chunk = chunk[:0]
			for i := 0; i < m; i++ {
				smp := sess.samples[(pos+i)%len(sess.samples)]
				if err := p.Check(smp); err != nil {
					return 0, err
				}
				chunk = append(chunk, smp)
			}
			t := time.Now()
			for _, smp := range chunk {
				if _, err := p.IngestChecked(smp); err != nil {
					return 0, err
				}
			}
			if _, err := p.Flush(); err != nil {
				return 0, err
			}
			total += time.Since(t)
			pos += m
			n += m
		}
	}
	return float64(total.Nanoseconds()) / float64(n), nil
}

// phasesFeedNs times the online phase tracker alone on every session's
// feature vectors and returns ns per sample.
func phasesFeedNs(srv *server, cfg stream.Config) float64 {
	target := srv.pay.target
	var total time.Duration
	n := 0
	for si := range srv.pay.sessions {
		sess := &srv.pay.sessions[si]
		vecs := make([][]float64, layerSamplesPerSession)
		for i := range vecs {
			row := sess.rows[i%len(sess.rows)]
			for j, v := range row {
				if j != target {
					vecs[i] = append(vecs[i], v)
				}
			}
		}
		online := phases.NewOnline(cfg.Phases, cfg.Calibration)
		t := time.Now()
		for _, v := range vecs {
			online.Feed(v)
		}
		total += time.Since(t)
		n += len(vecs)
	}
	return float64(total.Nanoseconds()) / float64(n)
}
