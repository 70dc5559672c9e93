// Command loadgen synthesizes a seeded request trace and replays it
// open-loop against a running serve instance: a load and soak driver for
// the serve API (the defined benchmark is perfbench). The model's schema
// is discovered from GET /v1/models/{ref}, the trace is fully
// materialized before the first request (same seed = byte-identical
// trace, so two runs measure the servers, not the generator), latency is
// measured from scheduled arrivals (coordinated-omission corrected), and
// the client's counters are cross-validated against the server's own
// /v1/metrics.json.
//
// Usage:
//
//	loadgen -target http://127.0.0.1:8080 -model cpi
//	        [-mode steady|ramp|sweep|burst] [-duration 10s] [-rps 100]
//	        [-end-rps 400] [-steps 5]
//	        [-burst-factor 4] [-burst-period 2s] [-burst-len 250ms]
//	        [-mix predict=6,batch=2,classify=1,stream=1]
//	        [-sessions 16] [-batch 64] [-stream-batch 16]
//	        [-payload clean|corrupt] [-seed 1]
//	        [-workers 32] [-queue 256] [-max-lateness 2s] [-timeout 10s]
//	        [-out report.json] [-max-error-budget 0.01]
//
// The JSON report goes to -out (default stdout) and a human summary to
// stderr. The exit status is non-zero when the counter cross-check fails
// or the error budget exceeds -max-error-budget.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"repro/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tcfg := loadgen.DefaultTraceConfig()
	rcfg := loadgen.DefaultRunConfig("")

	target := fs.String("target", "http://127.0.0.1:8080", "serve base URL")
	model := fs.String("model", "", "model reference (name or name@version), required")
	mode := fs.String("mode", string(tcfg.Mode), "rate shape: steady, ramp, sweep or burst")
	fs.DurationVar(&tcfg.Duration, "duration", tcfg.Duration, "offered-traffic window")
	fs.Float64Var(&tcfg.RPS, "rps", tcfg.RPS, "base request rate")
	fs.Float64Var(&tcfg.EndRPS, "end-rps", 0, "ramp/sweep final rate (default same as -rps)")
	fs.IntVar(&tcfg.Steps, "steps", tcfg.Steps, "sweep plateau count")
	fs.Float64Var(&tcfg.BurstFactor, "burst-factor", tcfg.BurstFactor, "burst rate multiplier")
	fs.DurationVar(&tcfg.BurstPeriod, "burst-period", tcfg.BurstPeriod, "time between burst starts")
	fs.DurationVar(&tcfg.BurstLen, "burst-len", tcfg.BurstLen, "burst length")
	mix := fs.String("mix", "predict=6,batch=2,classify=1,stream=1", "traffic mix weights")
	fs.IntVar(&tcfg.Sessions, "sessions", tcfg.Sessions, "distinct synthetic client sessions")
	fs.IntVar(&tcfg.BatchSize, "batch", tcfg.BatchSize, "rows per batch predict request")
	fs.IntVar(&tcfg.StreamBatch, "stream-batch", tcfg.StreamBatch, "samples per stream request")
	payload := fs.String("payload", loadgen.PayloadClean, "stream payload profile: clean, or corrupt (one negated event per sample, for refutation drills)")
	fs.Int64Var(&tcfg.Seed, "seed", tcfg.Seed, "trace synthesis seed")
	fs.IntVar(&rcfg.Workers, "workers", rcfg.Workers, "replay worker pool size")
	fs.IntVar(&rcfg.QueueDepth, "queue", rcfg.QueueDepth, "dispatch queue depth (default workers*8)")
	fs.DurationVar(&rcfg.MaxLateness, "max-lateness", rcfg.MaxLateness, "drop requests scheduled further in the past than this")
	fs.DurationVar(&rcfg.ClientTimeout, "timeout", rcfg.ClientTimeout, "per-request timeout")
	out := fs.String("out", "", "report JSON path (default stdout)")
	maxBudget := fs.Float64("max-error-budget", 1, "fail when the error budget exceeds this fraction (1 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("missing -model (a registry reference like cpi or cpi@v2)")
	}
	var err error
	if tcfg.Mode, err = loadgen.ParseMode(*mode); err != nil {
		return err
	}
	if tcfg.Mix, err = loadgen.ParseMix(*mix); err != nil {
		return err
	}
	if tcfg.Payload, err = loadgen.ParsePayload(*payload); err != nil {
		return err
	}
	tcfg.Model = *model
	rcfg.BaseURL = strings.TrimRight(*target, "/")

	// Discover the model's schema from the introspection endpoint and
	// shape the trace to it.
	info, err := loadgen.FetchModelInfo(nil, rcfg.BaseURL, *model)
	if err != nil {
		return err
	}
	tcfg.Schema = loadgen.Schema{Attrs: info.Attrs, Target: info.Target}

	tr, err := loadgen.Synthesize(tcfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loadgen: %d requests over %v (%s, seed %d) -> %s model %s@%s\n",
		len(tr.Requests), tcfg.Duration, tcfg.Mode, tcfg.Seed, rcfg.BaseURL, info.Name, info.Version)

	// Ctrl-C stops dispatch; queued requests still drain and the report
	// is still written.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	before, err := loadgen.FetchMetrics(nil, rcfg.BaseURL)
	if err != nil {
		return err
	}
	rep, err := loadgen.Run(ctx, tr, rcfg)
	if err != nil {
		return err
	}
	after, err := loadgen.FetchMetrics(nil, rcfg.BaseURL)
	if err != nil {
		return err
	}
	loadgen.Validate(rep, before, after)

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Fprintln(stdout, string(body))
	} else if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
		return err
	}
	summarize(stderr, rep)

	if !rep.Validation.Consistent {
		return fmt.Errorf("client and server counters disagree (see validation.checks in the report)")
	}
	if rep.Totals.ErrorBudget > *maxBudget {
		return fmt.Errorf("error budget %.4f exceeds limit %.4f", rep.Totals.ErrorBudget, *maxBudget)
	}
	return nil
}

// summarize prints the human-facing table to stderr: one line per
// traffic kind plus totals and the validation verdict.
func summarize(w io.Writer, rep *loadgen.Report) {
	fmt.Fprintf(w, "loadgen: wall %.2fs, offered %.1f rps, achieved %.1f rps\n",
		rep.WallSeconds, rep.Totals.OfferedRPS, rep.Totals.AchievedRPS)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %6s %9s %9s %9s %9s\n",
		"kind", "offered", "ok", "errors", "drop", "p50ms", "p95ms", "p99ms", "maxms")
	for _, k := range sortedKeys(rep.Endpoints) {
		ep := rep.Endpoints[k]
		fmt.Fprintf(w, "%-10s %8d %8d %8d %6d %9.3f %9.3f %9.3f %9.3f\n",
			k, ep.Offered, ep.OK, ep.Errors+ep.TransportErrors,
			ep.DroppedLate+ep.RejectedQueue,
			ep.Latency.P50Ms, ep.Latency.P95Ms, ep.Latency.P99Ms, ep.Latency.MaxMs)
	}
	t := rep.Totals
	fmt.Fprintf(w, "%-10s %8d %8d %8d %6d  error budget %.4f\n",
		"total", t.Offered, t.OK, t.Errors+t.TransportErrors,
		t.DroppedLate+t.RejectedQueue, t.ErrorBudget)
	codes := errorCodes(rep)
	for _, code := range sortedKeys(codes) {
		fmt.Fprintf(w, "loadgen:   %d x %s\n", codes[code], code)
	}
	switch {
	case !rep.Validation.Exact:
		fmt.Fprintf(w, "loadgen: validation inexact: %s\n", rep.Validation.Note)
	case rep.Validation.Consistent:
		fmt.Fprintf(w, "loadgen: validation ok: client counters match server /v1/metrics.json exactly (%d checks)\n",
			len(rep.Validation.Checks))
	default:
		fmt.Fprintln(w, "loadgen: validation FAILED: client and server counters disagree")
	}
}

// errorCodes aggregates ErrorsByCode across endpoints.
func errorCodes(rep *loadgen.Report) map[string]int {
	all := map[string]int{}
	for _, ep := range rep.Endpoints {
		for code, n := range ep.ErrorsByCode {
			all[code] += n
		}
	}
	return all
}

// sortedKeys returns m's keys in ascending order, so the summary prints
// the same lines in the same order for the same report.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
