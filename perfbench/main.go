// Command perfbench is the repository's benchmark: one seeded driver that
// runs a named workload in its own process, in-process and on loopback
// only, checks every output, and prints its metrics. See README.md for
// the workloads, the metrics and the layer each one isolates.
//
//	go build -o perfbench . && ./perfbench --workload predict --seed 1 --seconds 24 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/workload"
)

const (
	// setups is how many times a run sets up; setup_s is their median.
	setups = 3
	// warmup runs the closed loop before the measured window, so
	// connections, the heap and session state are past their first use.
	warmup = 500 * time.Millisecond
)

var workloads = []string{"offline", "predict", "stream"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string
	jobs     int
}

// A traced run measures for about the same total time as an untraced
// one: half in an untraced window of its own workload, for the overhead
// comparison, a quarter traced on its own workload, and an eighth on
// each of the other two workloads' layers, so that every traced run
// reports every per-layer metric.

// window is the length of the untraced window.
func (o options) window() time.Duration {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

// ownTraced is the traced time on the run's own workload.
func (o options) ownTraced() time.Duration { return o.seconds / 4 }

// otherTraced is the traced time on each of the other workloads.
func (o options) otherTraced() time.Duration { return o.seconds / 8 }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var secs, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the payload sections")
	fs.IntVar(&secs, "seconds", 24, "measured time of the run, seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	fs.StringVar(&o.dir, "out", filepath.Join(".bench_build", "perfbench"), "directory for response spills and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.seconds, o.trace = time.Duration(secs)*time.Second, trace == 1
	o.jobs = runtime.NumCPU()
	runtime.GOMAXPROCS(o.jobs)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	chk := &checks{}
	var res *result
	var err error
	switch o.workload {
	case "offline":
		res, err = benchOffline(o, chk)
	case "predict", "stream":
		res, err = benchServed(o, chk)
	default:
		err = fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if err == nil && o.trace {
		err = res.checkLayers()
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.report(o, chk, stdout)
	return 0
}

// layerMetrics are the per-layer metrics every traced run reports,
// whatever its workload, sorted; BENCHMARK.json declares the same list.
func layerMetrics() []string {
	names := []string{
		"eval.cv_self_ms", "eval.fold_build_ms", "mtree.build_ms", "mtree.leaves",
		"parallel.collect_efficiency", "sim.minst_per_s", "workload.gen_share",
		"runtime.alloc_mb.collect", "runtime.alloc_mb.fit", "runtime.gc_cycles.collect", "runtime.gc_cycles.fit",
		"runtime.live_heap_mb", "runtime.max_rss_mb",
		"mtree.predict_ns", "mtree.predict_into_ns_per_row", "serve.self_us.batch", "serve.cache_hit_ratio",
		"stream.ingest_ns_per_sample", "refute.share", "phases.feed_ns_per_sample",
		"serve.self_us.stream", "serve.self_us.stream_bulk",
		"stream.events_per_sample", "stream.response_bytes_per_sample", "shard.sessions",
	}
	for _, b := range workload.SuiteScaled(suiteScale) {
		names = append(names, "counters.collect_ms."+b.Name)
	}
	for _, m := range overheadMetrics {
		names = append(names, "trace_overhead."+m)
	}
	for _, kind := range servedKinds {
		names = append(names, "runtime.alloc_kb_per_req."+kind, "runtime.gc_cycles_per_kreq."+kind)
		for _, k := range requestKinds[kind] {
			names = append(names, "serve.handler_us."+k, "nethttp.self_us."+k)
		}
	}
	sort.Strings(names)
	return names
}

// checkLayers adds the tracing overhead to the per-layer metrics and
// requires exactly the metrics of layerMetrics, each a number.
func (r *result) checkLayers() error {
	for _, n := range overheadMetrics {
		if t, ok := r.tracedE2E[n]; ok {
			r.layers["trace_overhead."+n] = t/r.e2e[n] - 1
		}
	}
	want := layerMetrics()
	for _, n := range want {
		v, ok := r.layers[n]
		if !ok {
			return fmt.Errorf("traced run did not measure per-layer metric %s", n)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s is %v", n, v)
		}
	}
	if len(r.layers) != len(want) {
		return fmt.Errorf("traced run measured %d per-layer metrics, want %d", len(r.layers), len(want))
	}
	return nil
}

// checks counts operations and correctness checks; a failed check counts
// as a failed operation.
type checks struct {
	ops, opsFailed   int
	attempted, fails int
	msgs             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fails++
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
}

// result is what a run measured: end-to-end metrics always, and with
// tracing the per-layer metrics plus the traced pass's end-to-end view.
type result struct {
	setup        []float64
	e2e          map[string]float64
	info         []string // extra report lines
	layers       map[string]float64
	tracedE2E    map[string]float64
	layerInfo    []string
	traceSpans   int
	traceSpanOut string
}

// overheadMetrics are the end-to-end metrics a traced pass re-measures.
var overheadMetrics = []string{"items_per_s", "light_p50_us", "light_p90_us", "heavy_p50_us", "heavy_p90_us"}

func (r *result) report(o options, chk *checks, w io.Writer) {
	attempted := chk.ops + chk.attempted
	failed := chk.opsFailed + chk.fails
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%v trace=%v nproc=%d\n",
		o.workload, o.seed, o.seconds.Seconds(), o.trace, o.jobs)
	fmt.Fprintf(w, "setup runs (s): %v\n", r.setup)
	names := sortedKeys(r.e2e)
	for _, n := range names {
		fmt.Fprintf(w, "  %-16s %14.6g %-5s %s\n", n, r.e2e[n], unitOf(n), aliasOf(o.workload, n))
	}
	for _, l := range r.info {
		fmt.Fprintln(w, "  "+l)
	}
	share := float64(failed) / float64(attempted)
	fmt.Fprintf(w, "  failed_share     %14.6g       %d failed of %d attempted (%d operations, %d checks)\n",
		share, failed, attempted, chk.ops, chk.attempted)
	for _, m := range chk.msgs {
		fmt.Fprintln(w, "  FAILED CHECK:", m)
	}
	metrics := map[string]metric{}
	if o.trace {
		fmt.Fprintln(w, "tracing overhead (traced pass vs untraced window, share):")
		for _, n := range overheadMetrics {
			fmt.Fprintf(w, "  %-16s untraced %12.6g traced %12.6g  %+.2f%%\n",
				n, r.e2e[n], r.tracedE2E[n], 100*r.layers["trace_overhead."+n])
		}
		fmt.Fprintf(w, "per-layer metrics (%d spans written to %s):\n", r.traceSpans, r.traceSpanOut)
		for _, n := range sortedKeys(r.layers) {
			fmt.Fprintf(w, "  %-44s %14.6g %s\n", n, r.layers[n], unitOf(n))
			metrics[n] = metric{r.layers[n], unitOf(n)}
		}
		for _, l := range r.layerInfo {
			fmt.Fprintln(w, "  "+l)
		}
	} else {
		for _, n := range names {
			metrics[n] = metric{r.e2e[n], unitOf(n)}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	fmt.Fprintln(w, string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "setup_s":
		return "s"
	case name == "items_per_s":
		return "1/s"
	case name == "sim.minst_per_s":
		return "Minst/s"
	case name == "stream.response_bytes_per_sample":
		return "B"
	case strings.HasPrefix(name, "trace_overhead."), strings.HasSuffix(name, "share"),
		strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "efficiency"):
		return "ratio"
	case strings.HasSuffix(name, "_mb"), strings.HasPrefix(name, "runtime.alloc_mb."):
		return "MB"
	case strings.HasPrefix(name, "runtime.alloc_kb_per_req"):
		return "KB"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_ns"):
		return "ns"
	default:
		return "count"
	}
}

// aliasOf names the metric the way the workload's documentation does.
func aliasOf(workload, name string) string {
	alias := map[string]map[string]string{
		"offline": {"items_per_s": "collect_sections_per_s", "light_p50_us": "every mtree.Build (full and per fold)",
			"heavy_p50_us": "fit_s: mtree.Build + 10-fold eval.CrossValidate", "heavy_p90_us": "fit_s"},
		"predict": {"items_per_s": "predict_rows_per_s", "light_p50_us": "predict_p50_us (single row)",
			"light_p90_us": "predict_p90_us", "heavy_p50_us": "batch_p50_us (64 rows)", "heavy_p90_us": "batch_p90_us"},
		"stream": {"items_per_s": "stream_samples_per_s", "light_p50_us": "stream_p50_us (16 samples)",
			"light_p90_us": "stream_p90_us", "heavy_p50_us": "64-sample request", "heavy_p90_us": "64-sample request"},
	}
	return alias[workload][name]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// noteLiveHeap reports the window's live heap (see memSampler). It is a
// per-layer metric, not an end-to-end one: on the stream workload it
// grows with every phase boundary a session records, so it moved by 30%
// between seeds.
func (r *result) noteLiveHeap(o options, wall time.Duration, mem []memSample) {
	mb := liveHeapMB(wall, mem)
	r.info = append(r.info, fmt.Sprintf("live heap %.4g MB (median over 1-s slices of the peak)", mb))
	if o.trace {
		r.layers["runtime.live_heap_mb"] = mb
	}
}

// noteRSS reports the process's maximum resident set size so far. It
// is information, not an end-to-end metric: one value per process that
// moves with where garbage collections fall (see memSampler).
func (r *result) noteRSS(o options) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return
	}
	mb := float64(ru.Maxrss) / 1024 // Linux reports KiB
	r.info = append(r.info, fmt.Sprintf("getrusage max RSS %.1f MB (information only)", mb))
	if o.trace {
		r.layers["runtime.max_rss_mb"] = mb
	}
}

// timedSetups runs fn setups times and returns each duration; the last
// value fn returns is kept, earlier ones are released with drop.
func timedSetups[T any](fn func() (T, error), drop func(T) error) (T, []float64, error) {
	var keep T
	var times []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		v, err := fn()
		if err != nil {
			return keep, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setups-1 {
			if err := drop(v); err != nil {
				return keep, nil, err
			}
		}
		keep = v
	}
	return keep, times, nil
}

func (r *result) writeSpans(o options, rec *Recorder) error {
	r.traceSpanOut = filepath.Join(o.dir, "trace-"+o.workload+".ndjson")
	r.traceSpans = len(rec.Spans())
	f, err := os.Create(r.traceSpanOut)
	if err != nil {
		return err
	}
	if err := rec.WriteNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
