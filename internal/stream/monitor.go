package stream

import (
	"fmt"
	"io"

	"repro/internal/model"
)

// MonitorConfig drives RunMonitor.
type MonitorConfig struct {
	Config
	// RenderEvery prints a rolling text line every N scored sections
	// (0 disables text output entirely).
	RenderEvery int
	// SkipInvalid keeps going past malformed or schema-violating lines
	// (counted in Stats.Invalid) instead of aborting the run.
	// Unrecoverable read errors (an over-long line, a broken transport —
	// see Decoder.Failed) abort regardless: they would repeat forever.
	SkipInvalid bool
}

// DefaultMonitorConfig returns CLI-leaning defaults.
func DefaultMonitorConfig() MonitorConfig {
	return MonitorConfig{Config: DefaultConfig(), RenderEvery: 32, SkipInvalid: true}
}

// Monitor is a reusable streaming driver: a Processor plus the NDJSON
// decode/render loop. Constructing it separately from Run lets callers
// (cmd/monitor -refute) interrogate the processor — refutation report,
// stats — after the stream ends.
type Monitor struct {
	p   *Processor
	cfg MonitorConfig
}

// NewMonitor builds the driver for one model.
func NewMonitor(m model.Model, cfg MonitorConfig) (*Monitor, error) {
	p, err := NewProcessor(m, cfg.Config)
	if err != nil {
		return nil, err
	}
	return &Monitor{p: p, cfg: cfg}, nil
}

// Processor exposes the underlying processor.
func (mon *Monitor) Processor() *Processor { return mon.p }

// RunMonitor is the one-shot streaming driver: it decodes NDJSON samples
// from r, feeds them through a Processor over m, writes machine-readable
// events to eventsOut as NDJSON (one event per line, in order) and
// rolling human-readable status lines to textOut. Either writer may be
// nil. It returns when the input ends (a tailing reader simply never
// ends until closed).
//
// For a fixed input byte stream the bytes written to eventsOut and
// textOut are identical at any cfg.Jobs value.
func RunMonitor(m model.Model, cfg MonitorConfig, r io.Reader, textOut, eventsOut io.Writer) (Stats, error) {
	mon, err := NewMonitor(m, cfg)
	if err != nil {
		return Stats{}, err
	}
	return mon.Run(r, textOut, eventsOut)
}

// Run drives the monitor over one input stream (see RunMonitor).
func (mon *Monitor) Run(r io.Reader, textOut, eventsOut io.Writer) (Stats, error) {
	p, cfg := mon.p, mon.cfg
	if textOut == nil {
		textOut = io.Discard
	}
	dec := NewDecoder(r)
	lastRendered := 0
	var line []byte

	emit := func(events []Event) error {
		for i := range events {
			ev := &events[i]
			if eventsOut != nil {
				// One write per event, so a writer shared with textOut
				// sees events and status lines interleaved in order.
				var err error
				if line, err = AppendEvent(line[:0], ev); err == nil {
					_, err = eventsOut.Write(line)
				}
				if err != nil {
					return fmt.Errorf("stream: writing event: %w", err)
				}
			}
			switch ev.Type {
			case "phase":
				fmt.Fprintf(textOut, "section %6d  PHASE %d begins at section %d\n",
					ev.Section, ev.Phase, ev.PhaseStart)
			case "drift":
				fmt.Fprintf(textOut, "section %6d  DRIFT %s: observed CPI diverged %s from the model (stat %.3f after %d sections in regime, mean resid %+.3f)\n",
					ev.Section, ev.Direction, ev.Direction, ev.Stat, ev.RunLength, ev.MeanResidual)
			case "refute":
				fmt.Fprintf(textOut, "section %6d  REFUTE %s: counter relation %s (deviation %.3g)\n",
					ev.Section, ev.Verdict, ev.Relation, ev.Deviation)
			}
		}
		if cfg.RenderEvery > 0 {
			if st := p.Stats(); int(st.Scored)-lastRendered >= cfg.RenderEvery {
				lastRendered = int(st.Scored)
				if st.HaveObserved {
					fmt.Fprintf(textOut, "section %6d  obs CPI %.3f  pred CPI %.3f  resid %+.3f  phase %d  alarms %d\n",
						int(st.Scored)-1, st.EwmaObserved, st.EwmaPredicted,
						st.EwmaObserved-st.EwmaPredicted, st.Phase, st.DriftAlarms)
				} else {
					// Prediction-only stream: no sample ever carried a cpi
					// field, so there is no observation or residual to show.
					fmt.Fprintf(textOut, "section %6d  obs CPI n/a  pred CPI %.3f  phase %d  alarms %d\n",
						int(st.Scored)-1, st.EwmaPredicted, st.Phase, st.DriftAlarms)
				}
			}
		}
		return nil
	}

	for {
		rec, err := dec.NextRecord(p.sc)
		if err == io.EOF {
			break
		}
		if err != nil {
			// A malformed line is skippable; a failed decoder is not —
			// its error is sticky, so "skipping" it would spin forever
			// on the same error.
			if cfg.SkipInvalid && !dec.Failed() {
				p.invalid.Add(1)
				fmt.Fprintf(textOut, "skipping %v\n", err)
				continue
			}
			return p.Stats(), err
		}
		events, err := p.IngestRecord(rec)
		if err != nil {
			if cfg.SkipInvalid {
				fmt.Fprintf(textOut, "skipping line %d: %v\n", dec.Line(), err)
				continue
			}
			return p.Stats(), fmt.Errorf("line %d: %w", dec.Line(), err)
		}
		if err := emit(events); err != nil {
			return p.Stats(), err
		}
	}
	events, err := p.Flush()
	if err != nil {
		return p.Stats(), err
	}
	if err := emit(events); err != nil {
		return p.Stats(), err
	}
	st := p.Stats()
	fmt.Fprintf(textOut, "done: %d sections scored (%d invalid skipped), %d phase boundaries, %d drift alarms, counters %s\n",
		st.Scored, st.Invalid, st.PhaseBoundaries, st.DriftAlarms, st.Refutation.Verdict)
	return st, nil
}
