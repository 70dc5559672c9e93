package stream

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mtree"
)

// perfData builds the CPI-like training set used across serve and
// stream tests: two regimes keyed on L2M with piecewise-linear CPI.
func perfData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}, {Name: "DtlbLdM"},
	}, 0)
	for i := 0; i < n; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		y := 0.6 + 7*l1 + 0.01*rng.NormFloat64()
		if l2 > 0.002 {
			y = 1.1 + 90*l2 + 40*dt + 0.01*rng.NormFloat64()
		}
		d.MustAppend(dataset.Instance{y, l1, l2, dt})
	}
	return d
}

func trainTree(t testing.TB, d *dataset.Dataset) *mtree.Tree {
	t.Helper()
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// twoPhaseTrace writes an NDJSON trace: phase A for the first
// phaseLen sections, phase B after, with an unexplained +shift CPI
// regression injected from section shiftAt on. The CPI follows the same
// generative law as perfData, so the phase change alone leaves the
// model's residual flat — only the injected shift is drift.
func twoPhaseTrace(w io.Writer, total, phaseLen, shiftAt int, shift float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	enc := json.NewEncoder(w)
	for i := 0; i < total; i++ {
		var l1, l2, dt float64
		if i < phaseLen {
			l1 = 0.012 + 0.0015*rng.Float64()
			l2 = 0.0008 + 0.0002*rng.Float64()
			dt = 0.0001 + 0.00005*rng.Float64()
		} else {
			l1 = 0.002 + 0.0008*rng.Float64()
			l2 = 0.004 + 0.0003*rng.Float64()
			dt = 0.0006 + 0.0001*rng.Float64()
		}
		cpi := 0.6 + 7*l1
		if l2 > 0.002 {
			cpi = 1.1 + 90*l2 + 40*dt
		}
		cpi += 0.01 * rng.NormFloat64()
		if i >= shiftAt {
			cpi += shift
		}
		s := Sample{
			Bench:   "twophase",
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

func testConfig(jobs int) MonitorConfig {
	cfg := DefaultMonitorConfig()
	cfg.Jobs = jobs
	cfg.Window = 16
	cfg.PH.Lambda = 0.5
	cfg.RenderEvery = 25
	return cfg
}

// TestMonitorEndToEnd is the acceptance scenario: a synthetic two-phase
// trace with an injected CPI shift must yield the phase boundary near
// the true section and the drift alarm right after the shift — and the
// full event + text output must be byte-identical at jobs 1 and 8.
func TestMonitorEndToEnd(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	var trace bytes.Buffer
	const (
		total    = 130
		boundary = 60
		shiftAt  = 90
	)
	if err := twoPhaseTrace(&trace, total, boundary, shiftAt, 0.5, 99); err != nil {
		t.Fatal(err)
	}

	type run struct {
		events, text bytes.Buffer
		stats        Stats
	}
	runs := map[int]*run{}
	for _, jobs := range []int{1, 8} {
		r := &run{}
		st, err := RunMonitor(tree, testConfig(jobs), bytes.NewReader(trace.Bytes()), &r.text, &r.events)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		r.stats = st
		runs[jobs] = r
	}

	if !bytes.Equal(runs[1].events.Bytes(), runs[8].events.Bytes()) {
		t.Error("event stream differs between jobs=1 and jobs=8")
	}
	if !bytes.Equal(runs[1].text.Bytes(), runs[8].text.Bytes()) {
		t.Error("text output differs between jobs=1 and jobs=8")
	}

	st := runs[1].stats
	if st.Scored != total {
		t.Fatalf("scored %d sections, want %d", st.Scored, total)
	}
	if st.PhaseBoundaries != 1 {
		t.Errorf("found %d phase boundaries, want 1", st.PhaseBoundaries)
	}
	if st.DriftAlarms < 1 {
		t.Errorf("found no drift alarm")
	}

	var phaseStarts, driftSections []int
	dec := json.NewDecoder(bytes.NewReader(runs[1].events.Bytes()))
	for {
		var ev Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch ev.Type {
		case "phase":
			phaseStarts = append(phaseStarts, ev.PhaseStart)
		case "drift":
			driftSections = append(driftSections, ev.Section)
			if ev.Direction != "up" {
				t.Errorf("drift direction %q, want up", ev.Direction)
			}
		}
	}
	if len(phaseStarts) != 1 || abs(phaseStarts[0]-boundary) > 4 {
		t.Errorf("phase starts %v, want one near %d", phaseStarts, boundary)
	}
	if len(driftSections) == 0 {
		t.Fatal("no drift events")
	}
	first := driftSections[0]
	if first < shiftAt || first > shiftAt+9 {
		t.Errorf("first drift alarm at section %d, want within [%d,%d]", first, shiftAt, shiftAt+9)
	}
}

// TestNoDriftWithoutShift guards the false-positive side: the same
// two-phase trace with no injected shift must raise no alarm — a phase
// change the model understands is not drift.
func TestNoDriftWithoutShift(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	var trace bytes.Buffer
	if err := twoPhaseTrace(&trace, 130, 60, 130, 0, 99); err != nil {
		t.Fatal(err)
	}
	st, err := RunMonitor(tree, testConfig(1), &trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.DriftAlarms != 0 {
		t.Errorf("%d drift alarms on an in-distribution trace", st.DriftAlarms)
	}
	if st.PhaseBoundaries != 1 {
		t.Errorf("%d phase boundaries, want 1", st.PhaseBoundaries)
	}
}

// TestWindowingDoesNotChangeEvents pins that the scoring batch size is
// invisible in the output: windows are a throughput knob like jobs.
func TestWindowingDoesNotChangeEvents(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	var trace bytes.Buffer
	if err := twoPhaseTrace(&trace, 100, 50, 80, 0.5, 7); err != nil {
		t.Fatal(err)
	}
	var outs []string
	for _, window := range []int{1, 7, 64} {
		cfg := testConfig(4)
		cfg.Window = window
		var events bytes.Buffer
		if _, err := RunMonitor(tree, cfg, bytes.NewReader(trace.Bytes()), nil, &events); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, events.String())
	}
	if outs[0] != outs[1] || outs[0] != outs[2] {
		t.Error("event stream depends on window size")
	}
}

func TestMonitorSkipsInvalidLines(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	in := strings.Join([]string{
		`{"events":{"L1IM":0.01,"L2M":0.001,"DtlbLdM":0.0001},"cpi":0.67}`,
		`not json`,
		`{"events":{"NOPE":1}}`,
		`{"events":{"L1IM":0.01,"L2M":0.001,"DtlbLdM":0.0001},"cpi":0.67}`,
		``,
	}, "\n")
	cfg := testConfig(1)
	cfg.Window = 1
	var text bytes.Buffer
	st, err := RunMonitor(tree, cfg, strings.NewReader(in), &text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scored != 2 {
		t.Errorf("scored %d, want 2", st.Scored)
	}
	if st.Invalid != 2 {
		t.Errorf("invalid %d, want 2", st.Invalid)
	}
	if !strings.Contains(text.String(), "skipping") {
		t.Error("no skip notice in text output")
	}
}

// TestMonitorAbortsOnUnrecoverableReadError pins the busy-loop fix: a
// terminal scanner failure (here an over-long line) is sticky in the
// decoder, so the monitor must abort even under SkipInvalid instead of
// spinning on the same error forever.
func TestMonitorAbortsOnUnrecoverableReadError(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := testConfig(1)
	cfg.SkipInvalid = true
	cfg.Window = 1
	in := `{"events":{"L1IM":0.01,"L2M":0.001,"DtlbLdM":0.0001},"cpi":0.67}` + "\n" +
		strings.Repeat("x", MaxLineBytes+1) + "\n"
	st, err := RunMonitor(tree, cfg, strings.NewReader(in), io.Discard, nil)
	if err == nil {
		t.Fatal("monitor kept running past an unrecoverable scanner error")
	}
	if st.Scored != 1 {
		t.Errorf("scored %d sections before the failure, want 1", st.Scored)
	}
}

// TestDecoderFailureIsSticky pins the Decoder contract the monitor
// relies on: after a scanner error, Failed reports true and every Next
// call returns the same error.
func TestDecoderFailureIsSticky(t *testing.T) {
	dec := NewDecoder(strings.NewReader(strings.Repeat("x", MaxLineBytes+1)))
	_, err1 := dec.Next()
	if err1 == nil || err1 == io.EOF {
		t.Fatalf("over-long line did not fail the decoder: %v", err1)
	}
	if !dec.Failed() {
		t.Fatal("Failed() false after a scanner error")
	}
	if _, err2 := dec.Next(); err2 != err1 {
		t.Fatalf("second Next returned %v, want the sticky %v", err2, err1)
	}
}

// TestMonitorRendersNAWithoutObservedCPI guards the prediction-only
// status line: with no cpi field in any sample there is no observation
// or residual to show, so the rolling line must say "n/a" rather than
// render a zero EWMA as a real measurement.
func TestMonitorRendersNAWithoutObservedCPI(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := testConfig(1)
	cfg.Window = 1
	cfg.RenderEvery = 2
	in := strings.Repeat(`{"events":{"L1IM":0.01,"L2M":0.001,"DtlbLdM":0.0001}}`+"\n", 6)
	var text bytes.Buffer
	st, err := RunMonitor(tree, cfg, strings.NewReader(in), &text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.HaveObserved {
		t.Error("HaveObserved true on a prediction-only stream")
	}
	if !strings.Contains(text.String(), "obs CPI n/a") {
		t.Errorf("no n/a marker in status output:\n%s", text.String())
	}
	if strings.Contains(text.String(), "resid") {
		t.Errorf("residual rendered without any observation:\n%s", text.String())
	}
}

// TestEwmaObservedSeedsOnFirstObservation: when observations start
// arriving mid-stream, the EWMA must seed on the first real value, not
// drag up from an arbitrary zero.
func TestEwmaObservedSeedsOnFirstObservation(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := DefaultConfig()
	cfg.Jobs = 1
	cfg.Window = 1
	p, err := NewProcessor(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	noObs := Sample{Events: map[string]float64{"L1IM": 0.01, "L2M": 0.001, "DtlbLdM": 0.0001}}
	if _, err := p.Ingest(noObs); err != nil {
		t.Fatal(err)
	}
	if p.Stats().HaveObserved {
		t.Fatal("HaveObserved before any observation")
	}
	cpi := 1.5
	withObs := noObs
	withObs.CPI = &cpi
	if _, err := p.Ingest(withObs); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if !st.HaveObserved {
		t.Fatal("HaveObserved false after an observed sample")
	}
	if st.EwmaObserved != cpi {
		t.Errorf("EwmaObserved %.3f, want seeded at first observation %.3f", st.EwmaObserved, cpi)
	}
}

func TestMonitorAbortsOnInvalidWhenStrict(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := testConfig(1)
	cfg.SkipInvalid = false
	_, err := RunMonitor(tree, cfg, strings.NewReader("junk\n"), nil, nil)
	if err == nil {
		t.Fatal("strict monitor accepted malformed input")
	}
}

func TestProcessorCheckRejectsWithoutStateChange(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	p, err := NewProcessor(tree, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := Sample{Events: map[string]float64{"UNKNOWN": 1}}
	if err := p.Check(bad); err == nil {
		t.Fatal("unknown event passed Check")
	}
	if _, err := p.Ingest(bad); err == nil {
		t.Fatal("unknown event ingested")
	}
	st := p.Stats()
	if st.Accepted != 0 || st.Invalid != 1 {
		t.Errorf("stats after rejected sample: %+v", st)
	}
}

func TestDecoderLineNumbersAndRecovery(t *testing.T) {
	in := "\n" + `{"events":{"a":1}}` + "\n" + "{bad\n" + `{"events":{"b":2}}` + "\n"
	dec := NewDecoder(strings.NewReader(in))
	if s, err := dec.Next(); err != nil || len(s.Events) != 1 {
		t.Fatalf("first sample: %v %v", s, err)
	}
	_, err := dec.Next()
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed line error %v, want line 3 tag", err)
	}
	if s, err := dec.Next(); err != nil || s.Events["b"] != 2 {
		t.Fatalf("decoder did not recover after bad line: %v %v", s, err)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestSampleValidate(t *testing.T) {
	nan := `{"events":{"a":1},"cpi":null}`
	if _, err := DecodeSample([]byte(nan)); err != nil {
		t.Errorf("null cpi should decode as absent: %v", err)
	}
	for _, bad := range []string{
		`{}`,
		`{"events":{}}`,
		`{"events":{"a":1e400}}`,
	} {
		if _, err := DecodeSample([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestSchemaInstanceMapping(t *testing.T) {
	tree := trainTree(t, perfData(400, 3))
	sc, err := NewSchema(tree.Describe())
	if err != nil {
		t.Fatal(err)
	}
	cpi := 1.0
	s := Sample{Events: map[string]float64{"L2M": 0.004, "L1IM": 0.001}, CPI: &cpi}
	row, err := sc.instance(&s)
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != 4 || row[0] != 0 || row[1] != 0.001 || row[2] != 0.004 || row[3] != 0 {
		t.Errorf("instance %v", row)
	}
	if _, err := sc.instance(&Sample{Events: map[string]float64{"CPI": 1}}); err == nil {
		t.Error("target column accepted as an event")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkStreamIngest(b *testing.B) {
	tree := trainTree(b, perfData(2000, 17))
	var trace bytes.Buffer
	const n = 512
	if err := twoPhaseTrace(&trace, n, n/2, n, 0, 3); err != nil {
		b.Fatal(err)
	}
	samples := make([]Sample, 0, n)
	dec := NewDecoder(bytes.NewReader(trace.Bytes()))
	for {
		s, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Fatal(err)
		}
		samples = append(samples, s)
	}

	run := func(b *testing.B, jobs int, contribs bool) {
		cfg := DefaultConfig()
		cfg.Jobs = jobs
		cfg.Window = 64
		cfg.Contributions = contribs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := NewProcessor(tree, cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range samples {
				if _, err := p.Ingest(s); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := p.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1, true) })
	b.Run("parallel", func(b *testing.B) { run(b, 0, true) })
	b.Run("serial-nocontrib", func(b *testing.B) { run(b, 1, false) })
}
