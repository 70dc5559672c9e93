// Command serve exposes trained CPI models over HTTP: the paper's
// train-once / analyze-many oracle as an online service. Models persisted
// by cmd/train (single M5' trees) or saved as bagged ensembles — JSON
// files, the kind sniffed automatically — are loaded
// into a named, versioned registry, compiled to flat-array evaluators,
// and served at /v1/predict (single +
// batch, optional per-event contribution breakdown), /v1/classify (leaf
// id + decision path), /v1/stream (NDJSON ingestion into a persistent
// per-session phase/drift/refutation monitor that scores every sample on
// arrival), /v1/models (listing) and
// /v1/models/{ref} (schema, versions, source path, classifiability),
// /healthz, /metrics (text exposition) and /v1/metrics.json (structured
// per-route counters + latency histograms). Errors are uniform
// {"error":{"code","message"}} envelopes with stable codes.
//
// Usage:
//
//	serve -model cpi=tree.json [-model cpi@v2=tree2.json] [-addr :8080]
//	      [-cache 4096] [-timeout 10s]
//	      [-max-body 1048576] [-max-batch 4096]
//	      [-session-ttl 15m]
//	      [-pprof 127.0.0.1:6060]
//	serve -demo [-jobs N]       # no files: trains a small tree in-process
//
// Every request is evaluated on its own goroutine; concurrent requests,
// not intra-request fan-out, use the cores. -jobs sets only the worker
// count of -demo training.
//
// -timeout (default 10s, 0 disables) is the connection's read and write
// deadline for each request, on every route, /v1/stream included: a
// request must arrive within it and its response be written within it,
// or the server closes the connection. Feed a long-running stream
// session as a series of requests, each well inside the limit; the
// session persists between them.
//
// -pprof serves net/http/pprof on its own listener (keep it off the
// public address) with mutex and block profiling enabled, so lock
// contention in the serving hot path is observable in production.
//
// Model flags take name=path or name@version=path; an unversioned name
// registers as v1, and a bare reference in requests resolves to the most
// recently registered version of that name.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/counters"
	"repro/internal/mtree"
	"repro/internal/serve"
	"repro/internal/workload"
)

// modelFlags collects repeated -model name[@version]=path arguments.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }

func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	if err := run(os.Args[1:], os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, logOut io.Writer) error {
	srv, pprofSrv, nmodels, err := newServer(args, logOut)
	if err != nil {
		return err
	}
	if pprofSrv != nil {
		fmt.Fprintf(logOut, "serve: pprof on %s\n", pprofSrv.Addr)
		go func() {
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(logOut, "serve: pprof server: %v\n", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting on SIGINT/SIGTERM, then let
	// in-flight requests drain within a deadline.
	done := make(chan error, 1)
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Fprintln(logOut, "serve: shutting down...")
		if pprofSrv != nil {
			_ = pprofSrv.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	fmt.Fprintf(logOut, "serve: serving %d model(s) on %s\n", nmodels, srv.Addr)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// newServer parses the command line and assembles the HTTP server; it
// performs no network I/O, so tests can drive the returned handler
// directly. The second server is the optional -pprof debug listener
// (nil when disabled); the int is the number of registered models.
func newServer(args []string, logOut io.Writer) (*http.Server, *http.Server, int, error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(logOut)
	var models modelFlags
	fs.Var(&models, "model", "model to serve, as name=path or name@version=path (repeatable)")
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		jobs      = fs.Int("jobs", 0, "-demo training workers (0 = all cores, 1 = serial; the model is identical)")
		cacheSize = fs.Int("cache", 4096, "LRU prediction cache entries, keyed on exact value bits (0 disables)")
		timeout   = fs.Duration("timeout", 10*time.Second, "connection read and write deadline per request, every route alike; a stalled client is disconnected (0 disables)")
		maxBody   = fs.Int64("max-body", 1<<20, "maximum request body bytes")
		maxBatch  = fs.Int("max-batch", 4096, "maximum rows per request")
		sessTTL   = fs.Duration("session-ttl", serve.DefaultConfig().SessionTTL, "evict /v1/stream sessions idle this long (0 keeps them forever)")
		pprofAddr = fs.String("pprof", "", "serve net/http/pprof on this extra address with mutex/block profiling on (empty disables)")
		demo      = fs.Bool("demo", false, "train a small tree on the built-in simulator and serve it as \"demo\"")
		demoScale = fs.Float64("demo-scale", 0.05, "suite scale for -demo training")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, 0, err
	}
	if len(models) == 0 && !*demo {
		fs.Usage()
		return nil, nil, 0, errors.New("at least one -model (or -demo) is required")
	}

	reg := serve.NewRegistry()
	for _, spec := range models {
		ref, path, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, nil, 0, fmt.Errorf("-model %q: want name=path or name@version=path", spec)
		}
		name, version, pinned := strings.Cut(ref, "@")
		if !pinned {
			version = "v1"
		}
		if err := reg.LoadFile(name, version, path); err != nil {
			return nil, nil, 0, err
		}
		e, _ := reg.Get(name + "@" + version)
		d := e.Model.Describe()
		fmt.Fprintf(logOut, "serve: loaded %s@%s from %s: %s, %d leaves, target %s, trained on %d sections\n",
			name, version, path, d.Kind, d.NumLeaves, d.Target, d.TrainN)
	}
	if *demo {
		tree, err := trainDemo(*demoScale, *jobs)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := reg.Register("demo", "v1", tree, ""); err != nil {
			return nil, nil, 0, err
		}
		d := tree.Describe()
		fmt.Fprintf(logOut, "serve: trained demo@v1 in-process: %d leaves over %d sections\n", d.NumLeaves, d.TrainN)
	}

	cfg := serve.DefaultConfig()
	cfg.CacheSize = *cacheSize
	cfg.MaxBodyBytes = *maxBody
	cfg.MaxBatch = *maxBatch
	cfg.SessionTTL = *sessTTL

	// -timeout bounds each request at the connection: reading it
	// (headers and body) and writing its response. A client that stalls
	// loses the connection, which ends the handler's blocked read or
	// write. IdleTimeout is left zero, so keep-alive idling falls back
	// to ReadTimeout.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.New(reg, cfg).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *timeout,
		WriteTimeout:      *timeout,
	}
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = newPprofServer(*pprofAddr)
	}
	return srv, pprofSrv, reg.Len(), nil
}

// newPprofServer builds the optional debug listener: the net/http/pprof
// handlers on a dedicated mux (never the service mux, and never
// http.DefaultServeMux), with the runtime's mutex and block profilers
// sampling so /debug/pprof/mutex and /debug/pprof/block actually show
// the serving hot path's lock contention.
func newPprofServer(addr string) *http.Server {
	// Sample a fraction of contention events: cheap enough to leave on,
	// dense enough that a loadgen run paints the contended locks.
	runtime.SetMutexProfileFraction(100)
	runtime.SetBlockProfileRate(1_000_000) // one sample per ~1ms blocked
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
}

// trainDemo collects a reduced-scale suite on the built-in simulator and
// fits a paper-style tree — a self-contained model for smoke tests and
// first contact with the API.
func trainDemo(scale float64, jobs int) (*mtree.Tree, error) {
	ccfg := counters.DefaultCollectConfig()
	ccfg.Jobs = jobs
	col, err := counters.CollectSuite(workload.SuiteScaled(scale), ccfg)
	if err != nil {
		return nil, fmt.Errorf("demo collection: %w", err)
	}
	tcfg := mtree.DefaultConfig()
	// Scale the paper's 430-instance leaf floor with the reduced suite.
	tcfg.MinLeaf = col.Data.Len() / 20
	if tcfg.MinLeaf < 4 {
		tcfg.MinLeaf = 4
	}
	tcfg.Jobs = jobs
	tree, err := mtree.Build(col.Data, tcfg)
	if err != nil {
		return nil, fmt.Errorf("demo training: %w", err)
	}
	tree.Machine = ccfg.Machine
	return tree, nil
}
