package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/mtree"
	"repro/internal/parallel"
	"repro/internal/sim/trace"
	"repro/internal/workload"
)

// Reference values of the offline workload's input, the frozen core2
// collection at suiteScale (workload seed trainSeed).
const (
	// goldenCollectHash is the repository's golden collection hash
	// (golden_test.go) of exactly this collection.
	goldenCollectHash = "5357c68f18f11bb83ad02bf3b55e1f05e00430eee6669472a91d7fe8db78ac31"
	refLeaves         = 14
	cvFolds           = 10
	cvSeed            = 1
)

// refPooled is the pooled 10-fold CV result of the served tree
// configuration on that collection.
var refPooled = eval.Metrics{N: 318, Correlation: 0.9069604606074326, MAE: 0.27281119471414556,
	RAE: 0.2925012044105331, RMSE: 0.5192034747920211, RRSE: 0.4329203686026032}

// fit is one build of the served tree on a collection plus the 10-fold
// cross-validation of the same configuration.
type fit struct {
	build, cv time.Duration
	builds    []time.Duration // every mtree.Build call: the full one, then the folds'
	leaves    int
	pooled    eval.Metrics
}

// fitOnce times the full build, the cross-validation and every fold's
// build inside it. With rec set it also records an mtree.Build span, an
// eval.CrossValidate span and one mtree.Build span per fold as its child.
func fitOnce(d *dataset.Dataset, jobs int, rec *Recorder, req uint64) (*fit, error) {
	cfg := servedTreeConfig(d.Len(), jobs)
	id := rec.ID()
	t0 := time.Now()
	tree, err := mtree.Build(d, cfg)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	rec.Add(id, 0, req, "mtree.Build", t0, t1)
	f := &fit{build: t1.Sub(t0), builds: []time.Duration{t1.Sub(t0)}, leaves: tree.NumLeaves()}
	var mu sync.Mutex
	cvID := rec.ID()
	learner := eval.LearnerFunc{N: "M5'", F: func(fd *dataset.Dataset) (eval.Regressor, error) {
		fid := rec.ID()
		s := time.Now()
		t, err := mtree.Build(fd, cfg)
		e := time.Now()
		rec.Add(fid, cvID, req, "mtree.Build", s, e)
		mu.Lock()
		f.builds = append(f.builds, e.Sub(s))
		mu.Unlock()
		return t, err
	}}
	res, err := eval.CrossValidate(learner, d, cvFolds, cvSeed, parallel.Config{Jobs: jobs})
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	rec.Add(cvID, 0, req, "eval.CrossValidate", t1, t2)
	f.cv, f.pooled = t2.Sub(t1), res.Pooled
	return f, nil
}

// iteration is one collect-and-fit round of the offline window.
type iteration struct {
	start, end time.Duration // since the window started
	collect    time.Duration
	sections   int
	fit        *fit
	hash       string
}

// runOffline collects, builds and cross-validates back to back until
// the deadline, sampling memory throughout. Each collection's digest is
// taken between iterations, outside every timed operation, so no
// collection outlives its iteration; digests are compared with the
// reference after the window.
func runOffline(jobs int, d time.Duration) ([]iteration, []memSample, error) {
	var its []iteration
	start := time.Now()
	mem := startMemSampler(start)
	defer mem.finish()
	for time.Since(start) < d {
		it := iteration{start: time.Since(start)}
		col, err := collect(trainSeed, jobs)
		if err != nil {
			return nil, nil, err
		}
		it.collect = time.Since(start) - it.start
		it.sections = col.Data.Len()
		if it.fit, err = fitOnce(col.Data, jobs, nil, 0); err != nil {
			return nil, nil, err
		}
		it.end = time.Since(start)
		it.hash = hashCollection(col)
		its = append(its, it)
	}
	return its, mem.finish(), nil
}

// checkOffline compares every iteration with the reference values.
func checkOffline(its []iteration, chk *checks) {
	for i, it := range its {
		chk.expect(it.hash == goldenCollectHash, "iteration %d: collection hash %s", i, it.hash)
		chk.expect(it.fit.leaves == refLeaves, "iteration %d: %d leaves, want %d", i, it.fit.leaves, refLeaves)
		chk.expect(it.fit.pooled == refPooled, "iteration %d: pooled CV %+v, want %+v", i, it.fit.pooled, refPooled)
	}
}

// offlineMetrics: iterations are the offline window's slices. Collection
// throughput and the build percentiles (over each iteration's full and
// fold builds) are medians over iterations; the fit (full build plus
// cross-validation) percentiles are over iterations.
func offlineMetrics(its []iteration) map[string]float64 {
	per := map[string][]float64{}
	var fits []float64
	for _, it := range its {
		builds := micros(it.fit.builds)
		per["items_per_s"] = append(per["items_per_s"], float64(it.sections)/it.collect.Seconds())
		per["light_p50_us"] = append(per["light_p50_us"], Percentile(builds, 0.5))
		per["light_p90_us"] = append(per["light_p90_us"], Percentile(builds, 0.9))
		fits = append(fits, float64(it.fit.build+it.fit.cv)/float64(time.Microsecond))
	}
	out := map[string]float64{
		"heavy_p50_us": Percentile(fits, 0.5),
		"heavy_p90_us": Percentile(fits, 0.9),
	}
	for _, k := range []string{"items_per_s", "light_p50_us", "light_p90_us"} {
		out[k] = Median(per[k])
	}
	return out
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// generateOnly runs the benchmark's workload generator over the same
// sections CollectBenchmark simulates, without the simulator, and
// returns the instructions generated.
func generateOnly(b workload.Benchmark, cfg counters.CollectConfig) uint64 {
	var block [trace.DefaultBlockLen]trace.Inst
	var insts uint64
	src := workload.NewSectionSource(b, cfg.Seed)
	for gen, _ := src.Next(); gen != nil; gen, _ = src.Next() {
		for remaining := cfg.SectionLen; remaining > 0; {
			n := min(uint64(len(block)), remaining)
			gen.NextBlock(block[:n])
			remaining -= n
		}
		insts += cfg.SectionLen
	}
	return insts
}

// offlineLayers is one traced pass over the offline layers; the caller
// repeats it and keeps medians. The pass's collection and fit are
// returned as an iteration, for the correctness gate and the traced
// end-to-end view.
func offlineLayers(jobs int, rec *Recorder, pass uint64) (map[string]float64, *iteration, error) {
	out := map[string]float64{}
	suite := workload.SuiteScaled(suiteScale)
	cfg := collectConfig(trainSeed, jobs)
	span := func(name string, fn func() error) (time.Duration, error) {
		id := rec.ID()
		s := time.Now()
		err := fn()
		e := time.Now()
		rec.Add(id, 0, pass, name, s, e)
		return e.Sub(s), err
	}

	// Serial per-benchmark collection: the counters/sim/workload stack
	// with no fan-out.
	var serial, gen time.Duration
	var insts uint64
	for _, b := range suite {
		dt, err := span("counters.CollectBenchmark."+b.Name, func() error {
			_, err := counters.CollectBenchmark(b, cfg)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		serial += dt
		out["counters.collect_ms."+b.Name] = dt.Seconds() * 1e3
		var n uint64
		dt, _ = span("workload.generate."+b.Name, func() error {
			n = generateOnly(b, cfg)
			return nil
		})
		gen += dt
		insts += n
	}
	out["workload.gen_share"] = gen.Seconds() / serial.Seconds()
	out["sim.minst_per_s"] = float64(insts) / (serial - gen).Seconds() / 1e6

	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var col *counters.Collection
	wall, err := span("counters.CollectSuite", func() error {
		var err error
		col, err = counters.CollectSuite(suite, cfg)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	out["parallel.collect_efficiency"] = serial.Seconds() / (float64(jobs) * wall.Seconds())

	f, err := fitOnce(col.Data, jobs, rec, pass)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms2)
	out["mtree.build_ms"] = f.build.Seconds() * 1e3
	out["mtree.leaves"] = float64(f.leaves)
	out["runtime.alloc_mb.collect"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	out["runtime.gc_cycles.collect"] = float64(ms1.NumGC - ms0.NumGC)
	out["runtime.alloc_mb.fit"] = float64(ms2.TotalAlloc-ms1.TotalAlloc) / 1e6
	out["runtime.gc_cycles.fit"] = float64(ms2.NumGC - ms1.NumGC)

	// Fold builds and the cross-validation's own time, from this pass's
	// spans.
	var folds []float64
	var cvSpan Span
	spans := rec.Spans()
	kids := ChildrenOf(spans)
	for _, s := range spans {
		if s.Req == pass && s.Name == "eval.CrossValidate" {
			cvSpan = s
			for _, k := range kids[s.ID] {
				folds = append(folds, float64(k.Dur())/1e6)
			}
		}
	}
	if len(folds) != cvFolds {
		return nil, nil, fmt.Errorf("traced %d fold builds, want %d", len(folds), cvFolds)
	}
	out["eval.fold_build_ms"] = Median(folds)
	out["eval.cv_self_ms"] = float64(SelfTime(cvSpan, kids[cvSpan.ID])) / 1e6
	it := &iteration{collect: wall, sections: col.Data.Len(), fit: f, hash: hashCollection(col)}
	return out, it, nil
}

// offlineLayerPasses repeats traced passes over the offline layers for
// d, at least one, keeps the median of each layer metric and returns
// the passes' iterations, checked against the reference values.
func (r *result) offlineLayerPasses(o options, rec *Recorder, d time.Duration, chk *checks) ([]iteration, error) {
	var passes []map[string]float64
	var its []iteration
	deadline := time.Now().Add(d)
	for len(passes) == 0 || time.Now().Before(deadline) {
		m, it, err := offlineLayers(o.jobs, rec, rec.ID())
		if err != nil {
			return nil, err
		}
		passes, its = append(passes, m), append(its, *it)
	}
	chk.ops += 3 * len(its)
	checkOffline(its, chk)
	for n := range passes[0] {
		var vs []float64
		for _, p := range passes {
			vs = append(vs, p[n])
		}
		r.layers[n] = Median(vs)
	}
	r.layerInfo = append(r.layerInfo, fmt.Sprintf("offline layers: medians over %d traced passes", len(passes)))
	return its, nil
}

// benchOffline measures the offline pipeline. Set-up trains the served
// model once per repeat; the window then collects, builds and
// cross-validates back to back.
func benchOffline(o options, chk *checks) (*result, error) {
	_, times, err := timedSetups(func() (*mtree.Tree, error) {
		col, err := collect(trainSeed, o.jobs)
		if err != nil {
			return nil, err
		}
		chk.expect(hashCollection(col) == goldenCollectHash, "set-up collection hash differs from the golden hash")
		return mtree.Build(col.Data, servedTreeConfig(col.Data.Len(), o.jobs))
	}, func(*mtree.Tree) error { return nil })
	if err != nil {
		return nil, err
	}
	// Return set-up's garbage to the OS, so the window's memory footprint
	// starts from what the workload itself holds.
	debug.FreeOSMemory()
	its, mem, err := runOffline(o.jobs, o.window())
	if err != nil {
		return nil, err
	}
	res := &result{setup: times, e2e: offlineMetrics(its), layers: map[string]float64{}}
	res.e2e["setup_s"] = Median(times)
	res.noteLiveHeap(o, its[len(its)-1].end, mem)
	sections := 0
	for _, it := range its {
		sections += it.sections
	}
	res.info = append(res.info, fmt.Sprintf("%d iterations, %d sections collected, %d builds",
		len(its), sections, len(its)*(cvFolds+1)))
	chk.ops += 3 * len(its)
	checkOffline(its, chk)
	res.noteRSS(o)

	if o.trace {
		rec := NewRecorder()
		traced, err := res.offlineLayerPasses(o, rec, o.ownTraced(), chk)
		if err != nil {
			return nil, err
		}
		res.tracedE2E = offlineMetrics(traced)
		if err := res.servedTracedLayers(o, rec, chk); err != nil {
			return nil, err
		}
		if err := res.writeSpans(o, rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}
