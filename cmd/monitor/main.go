// Command monitor is the online counterpart of cmd/analyze: it tails a
// stream of per-section counter samples (NDJSON), scores each section
// through a persisted model, and watches two things continuously —
// execution-phase boundaries (incremental centroid tracking over the
// counter vectors) and model drift (a Page–Hinkley test over the
// predicted-vs-observed CPI residual, the paper's regression-detection
// use case made continuous).
//
// Usage:
//
//	monitor -model tree.json [-in samples.ndjson] [-follow]
//	        [-calibration 32] [-ph-delta 0.005] [-ph-lambda 0.25]
//	        [-events out.ndjson] [-no-samples] [-render 32] [-quiet]
//	        [-refute] [-no-refute]
//	monitor -demo             # self-contained: trains a model, synthesizes
//	                          # a two-phase trace with an injected CPI
//	                          # regression, and verifies both are caught
//	monitor -demo -demo-corrupt -refute   # refutation drill: the demo trace
//	                          # carries impossible counter readings and the
//	                          # exit status reports whether the consistency
//	                          # layer refuted them
//
// Alongside the phase and drift monitors, every sample is checked
// against the counter-consistency relation catalog (internal/refute),
// whose verdicts advance once every 32 sections (and once more for a
// trailing partial window at the end of input); -refute prints the
// per-relation table after the run and exits non-zero when the stream
// is refuted — counters that violate identity relations mean the data,
// not the model, is wrong.
//
// Samples are read from stdin by default, one JSON object per line:
//
//	{"bench":"mcf","section":12,"events":{"L2M":0.004,"L1IM":0.002},"cpi":1.41}
//
// Every sample is scored as it is read. Human-readable status goes to
// stderr; machine-readable events (NDJSON) go to -events (default
// stdout). They are the events /v1/stream answers for the same samples,
// in any request chunking, plus those of the end-of-input window close.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/refute"
	"repro/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("monitor: ")
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelPath   = fs.String("model", "", "model tree JSON file from train -out")
		in          = fs.String("in", "-", "NDJSON sample stream (\"-\" = stdin)")
		follow      = fs.Bool("follow", false, "keep reading as the input file grows (tail -f)")
		calibration = fs.Int("calibration", 32, "sections used to calibrate phase-detector noise scales")
		phDelta     = fs.Float64("ph-delta", stream.DefaultPHConfig().Delta, "Page-Hinkley per-sample drift allowance (CPI units)")
		phLambda    = fs.Float64("ph-lambda", stream.DefaultPHConfig().Lambda, "Page-Hinkley alarm threshold (CPI units)")
		phMin       = fs.Int("ph-min", stream.DefaultPHConfig().MinSamples, "Page-Hinkley grace period (samples)")
		eventsOut   = fs.String("events", "-", "machine-readable event output (\"-\" = stdout, \"\" = none)")
		noSamples   = fs.Bool("no-samples", false, "suppress per-section \"sample\" events (keep phase/drift)")
		render      = fs.Int("render", 32, "print a rolling status line every N sections (0 = never)")
		quiet       = fs.Bool("quiet", false, "suppress all human-readable output")
		strict      = fs.Bool("strict", false, "abort on the first malformed sample instead of skipping")
		refuteFlag  = fs.Bool("refute", false, "print the counter-consistency relation table after the run; exit non-zero on a refuted verdict")
		noRefute    = fs.Bool("no-refute", false, "disable counter-consistency checking entirely")
		demo        = fs.Bool("demo", false, "run the built-in two-phase drift demo and self-verify")
		demoSeed    = fs.Int64("demo-seed", 99, "demo trace seed")
		demoCorrupt = fs.Bool("demo-corrupt", false, "poison the demo trace with impossible counter readings (refutation drill; use with -refute)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := stream.DefaultMonitorConfig()
	cfg.Calibration = *calibration
	cfg.PH.Delta = *phDelta
	cfg.PH.Lambda = *phLambda
	cfg.PH.MinSamples = *phMin
	cfg.EmitSamples = !*noSamples
	cfg.RenderEvery = *render
	cfg.SkipInvalid = !*strict
	cfg.Refute.Disabled = *noRefute
	if *quiet {
		cfg.RenderEvery = 0
	}
	if *refuteFlag && *noRefute {
		return errors.New("-refute and -no-refute are mutually exclusive")
	}

	textOut := stderr
	if *quiet {
		textOut = io.Discard
	}
	var events io.Writer
	switch *eventsOut {
	case "":
		events = nil
	case "-":
		events = stdout
	default:
		f, err := os.Create(*eventsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		events = f
	}

	if *demo {
		return runDemo(cfg, *demoSeed, *demoCorrupt, *refuteFlag, textOut, events)
	}

	if *modelPath == "" {
		fs.Usage()
		return errors.New("-model is required (or use -demo)")
	}
	m, err := mtree.ReadFile(*modelPath)
	if err != nil {
		return err
	}
	d := m.Describe()
	fmt.Fprintf(textOut, "monitoring with %s (%d leaves, target %s, trained on %d sections)\n",
		d.Kind, d.NumLeaves, d.Target, d.TrainN)

	r, cleanup, err := openInput(*in, *follow, stdin)
	if err != nil {
		return err
	}
	defer cleanup()

	mon, err := stream.NewMonitor(m, cfg)
	if err != nil {
		return err
	}
	if _, err := mon.Run(r, textOut, events); err != nil {
		return err
	}
	if *refuteFlag {
		return reportRefutation(mon.Processor().Refutation(), textOut)
	}
	return nil
}

// reportRefutation renders the per-relation consistency table and turns
// a refuted verdict into a non-zero exit: a refuted stream means the
// counters themselves are inconsistent, so nothing scored from them —
// predictions, phases, drift alarms — should be trusted.
func reportRefutation(rep refute.Report, w io.Writer) error {
	machine := rep.Machine
	if machine == "" {
		machine = "(untagged)"
	}
	fmt.Fprintf(w, "counter consistency: %s  (%d samples, %d windows, %d relations, machine %s)\n",
		rep.Verdict, rep.Samples, rep.Windows, len(rep.Relations), machine)
	fmt.Fprintf(w, "  %-28s %-9s %9s %6s %7s %10s  %s\n",
		"relation", "kind", "checked", "viol", "windows", "maxdev", "verdict")
	refuted := 0
	for _, rel := range rep.Relations {
		fmt.Fprintf(w, "  %-28s %-9s %9d %6d %7d %10.3g  %s\n",
			rel.Name, rel.Kind, rel.Checked, rel.Violations, rel.ViolatedWindows, rel.MaxDeviation, rel.Verdict)
		if rel.Verdict != refute.Consistent {
			fmt.Fprintf(w, "      %s  — %s\n", rel.Formula, rel.Description)
		}
		if rel.Verdict == refute.Refuted {
			refuted++
		}
	}
	if rep.Verdict == refute.Refuted {
		return fmt.Errorf("counter stream refuted: %d relation(s) violated beyond tolerance — distrust the counters, not the model", refuted)
	}
	return nil
}

// openInput opens the sample source; with follow it keeps the reader
// alive across EOF until SIGINT/SIGTERM.
func openInput(path string, follow bool, stdin io.Reader) (io.Reader, func(), error) {
	if path == "-" {
		return stdin, func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	if !follow {
		return f, func() { f.Close() }, nil
	}
	t := &tailReader{f: f, stop: make(chan struct{})}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		close(t.stop)
	}()
	return t, func() { f.Close() }, nil
}

// tailReader turns EOF into "wait for more data", ending only when
// stopped — enough to follow a growing NDJSON file.
type tailReader struct {
	f    *os.File
	stop chan struct{}
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 || (err != nil && err != io.EOF) {
			return n, err
		}
		select {
		case <-t.stop:
			return 0, io.EOF
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// runDemo trains a small tree on a synthetic two-regime CPI law, streams
// a trace that changes phase at one third and suffers an unexplained
// +0.5 CPI regression at two thirds, and verifies the monitor reports
// both. It fails (and the binary exits non-zero) on any miss, so
// `monitor -demo` doubles as an end-to-end smoke test.
//
// With corrupt, the trace additionally carries impossible (negative)
// DTLB readings from the corruption point on — a refutation drill: the
// phase/drift self-checks are skipped (the trace is poisoned by design)
// and the exit status is decided by the -refute verdict instead, so
// `monitor -demo -demo-corrupt -refute` exits non-zero exactly when the
// consistency layer catches the corruption.
func runDemo(cfg stream.MonitorConfig, seed int64, corrupt, refuteFlag bool, textOut, events io.Writer) error {
	const (
		total     = 150
		boundary  = 50
		shiftAt   = 100
		corruptAt = 30
	)
	fmt.Fprintf(textOut, "demo: %d sections, phase change at %d, injected +0.5 CPI regression at %d\n",
		total, boundary, shiftAt)
	if corrupt {
		fmt.Fprintf(textOut, "demo: counter corruption (negated DtlbLdM) injected from section %d\n", corruptAt)
	}
	tree, err := demoModel(seed)
	if err != nil {
		return err
	}
	mon, err := stream.NewMonitor(tree, cfg)
	if err != nil {
		return err
	}
	badFrom := total + 1
	if corrupt {
		badFrom = corruptAt
	}
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(demoTrace(pw, total, boundary, shiftAt, 0.5, badFrom, seed))
	}()
	st, err := mon.Run(pr, textOut, events)
	if err != nil {
		return err
	}
	if refuteFlag {
		if err := reportRefutation(mon.Processor().Refutation(), textOut); err != nil {
			return err
		}
	}
	if corrupt {
		// A poisoned trace makes the phase/drift self-checks meaningless;
		// the refutation verdict above is the drill's outcome.
		return nil
	}
	fmt.Fprintf(textOut, "demo: phase boundaries %d, drift alarms %d\n", st.PhaseBoundaries, st.DriftAlarms)
	if st.PhaseBoundaries != 1 {
		return fmt.Errorf("demo FAILED: %d phase boundaries, want 1", st.PhaseBoundaries)
	}
	if st.DriftAlarms < 1 {
		return errors.New("demo FAILED: injected regression raised no drift alarm")
	}
	fmt.Fprintln(textOut, "demo: PASS")
	return nil
}

// demoLaw is the generative CPI law shared by the demo's training set
// and trace: two regimes keyed on L2M, piecewise linear in the rates.
func demoLaw(l1, l2, dt float64) float64 {
	if l2 > 0.002 {
		return 1.1 + 90*l2 + 40*dt
	}
	return 0.6 + 7*l1
}

func demoModel(seed int64) (model.Model, error) {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}, {Name: "DtlbLdM"},
	}, 0)
	for i := 0; i < 1200; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		d.MustAppend(dataset.Instance{demoLaw(l1, l2, dt) + 0.01*rng.NormFloat64(), l1, l2, dt})
	}
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	return mtree.Build(d, cfg)
}

func demoTrace(w io.Writer, total, boundary, shiftAt int, shift float64, badFrom int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 1))
	enc := json.NewEncoder(w)
	for i := 0; i < total; i++ {
		var l1, l2, dt float64
		if i < boundary {
			l1 = 0.012 + 0.0015*rng.Float64()
			l2 = 0.0008 + 0.0002*rng.Float64()
			dt = 0.0001 + 0.00005*rng.Float64()
		} else {
			l1 = 0.002 + 0.0008*rng.Float64()
			l2 = 0.004 + 0.0003*rng.Float64()
			dt = 0.0006 + 0.0001*rng.Float64()
		}
		cpi := demoLaw(l1, l2, dt) + 0.01*rng.NormFloat64()
		if i >= shiftAt {
			cpi += shift
		}
		if i >= badFrom {
			// An impossible reading: event rates cannot be negative, so
			// every sample from here on violates nonneg-DtlbLdM.
			dt = -dt
		}
		s := stream.Sample{
			Bench:   "demo",
			Section: i,
			Events:  map[string]float64{"L1IM": l1, "L2M": l2, "DtlbLdM": dt},
			CPI:     &cpi,
		}
		if err := enc.Encode(&s); err != nil {
			return err
		}
	}
	return nil
}
