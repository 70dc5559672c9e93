package stream

import (
	"fmt"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/phases"
	"repro/internal/refute"
)

// Config tunes a Processor.
type Config struct {
	// Jobs is unused: every sample is scored as it arrives, on the
	// caller's goroutine. It remains only so callers that still set it
	// compile; it will be removed.
	Jobs int
	// Calibration is the number of leading sections the phase tracker
	// uses to estimate counter noise before reporting boundaries.
	Calibration int
	// Phases tunes the phase detector (zero value = phases defaults).
	Phases phases.Config
	// PH tunes the drift detector (zero value = PH defaults).
	PH PHConfig
	// EmitSamples emits a "sample" event per scored section, carrying
	// the top CPI contributor (the paper's Eq. 4 "how much" answer);
	// phase, drift and refute events are always emitted.
	EmitSamples bool
	// Refute tunes the counter-consistency checker (zero value = checking
	// on with refute defaults; set Refute.Disabled to opt out).
	Refute refute.Config
}

// DefaultConfig returns monitoring-friendly defaults.
func DefaultConfig() Config {
	return Config{
		Calibration: 32,
		Phases:      phases.DefaultConfig(),
		PH:          DefaultPHConfig(),
		EmitSamples: true,
	}
}

func (c Config) sanitized() Config {
	if c.Calibration < 2 {
		c.Calibration = DefaultConfig().Calibration
	}
	c.PH = c.PH.sanitized()
	return c
}

// Event is one machine-readable monitor output, NDJSON-encoded by the
// drivers. Type selects which optional fields are present.
type Event struct {
	// Type is "sample" (one scored section), "phase" (a confirmed phase
	// boundary), "drift" (a Page–Hinkley alarm) or "refute" (a counter-
	// consistency relation changed verdict).
	Type string `json:"type"`
	// Section is the zero-based arrival index the event refers to.
	Section int `json:"section"`
	// Bench echoes the producing sample's label.
	Bench string `json:"bench,omitempty"`
	// Phase is the current 1-based phase at this event.
	Phase int `json:"phase,omitempty"`

	// sample fields
	Predicted   float64  `json:"predicted,omitempty"`
	Observed    *float64 `json:"observed,omitempty"`
	Residual    *float64 `json:"residual,omitempty"`
	TopEvent    string   `json:"top_event,omitempty"`
	TopFraction float64  `json:"top_fraction,omitempty"`

	// phase fields: the new phase begins at PhaseStart; Section is where
	// the debounce confirmed it (up to MinRun-1 later).
	PhaseStart int `json:"phase_start,omitempty"`

	// drift fields
	Direction    string  `json:"direction,omitempty"`
	Stat         float64 `json:"stat,omitempty"`
	MeanResidual float64 `json:"mean_residual,omitempty"`
	RunLength    int     `json:"run_length,omitempty"`

	// refute fields: a counter-consistency relation changed verdict when
	// the refutation window ending at Section closed.
	Relation  string         `json:"relation,omitempty"`
	Verdict   refute.Verdict `json:"verdict,omitempty"`
	Deviation float64        `json:"deviation,omitempty"`
}

// Stats is a monitor state snapshot, exposed on /metrics and in CLI
// summaries.
type Stats struct {
	// Accepted equals Scored: every accepted sample is scored on arrival.
	Accepted uint64 `json:"accepted"`
	Scored   uint64 `json:"scored"`
	Invalid  uint64 `json:"invalid"`
	// Windows counts the closed refutation windows.
	Windows         uint64 `json:"windows"`
	PhaseBoundaries uint64 `json:"phase_boundaries"`
	DriftAlarms     uint64 `json:"drift_alarms"`
	Phase           int    `json:"phase"`
	// HaveObserved is true once any scored sample carried an observed
	// CPI; while false, EwmaObserved is meaningless (no observation ever
	// arrived) and consumers should render it as absent.
	HaveObserved  bool    `json:"have_observed"`
	EwmaObserved  float64 `json:"ewma_observed"`
	EwmaPredicted float64 `json:"ewma_predicted"`
	// Refutation digests the counter-consistency checker: the session
	// verdict plus violation counts. Together with DriftAlarms it encodes
	// the decision rule — drift alarms while the counters stay consistent
	// mean the model no longer fits (retrain); relation violations mean
	// the counter stream itself is broken (distrust the data).
	Refutation refute.Summary `json:"refutation"`
}

// Processor scores a sample stream through one model and runs the
// online monitors. It is not safe for concurrent use; callers that
// share one processor (the serve layer) serialize access.
type Processor struct {
	m       model.Model
	sc      *Schema
	cfg     Config
	online  *phases.Online
	ph      *PageHinkley
	refuter *refute.Checker

	// feat is the phase tracker's input vector, refilled for every
	// sample; the tracker copies what it keeps.
	feat []float64
	// bench is the last scored sample's label, which anchors the refute
	// events of a window closed by Flush.
	bench string

	scored   uint64
	invalid  atomic.Uint64
	bounds   uint64
	alarms   uint64
	havePred bool
	haveObs  bool
	ewmaObs  float64
	ewmaPred float64
}

// ewmaAlpha is the smoothing factor of the rolling CPI means shown in
// monitor summaries (~ a 2/alpha-section horizon).
const ewmaAlpha = 0.1

// NewProcessor builds a processor for one trained model.
func NewProcessor(m model.Model, cfg Config) (*Processor, error) {
	sc, err := NewSchema(m.Describe())
	if err != nil {
		return nil, err
	}
	cfg = cfg.sanitized()
	return &Processor{
		m:       m,
		sc:      sc,
		cfg:     cfg,
		feat:    make([]float64, len(sc.featIdx)),
		online:  phases.NewOnline(cfg.Phases, cfg.Calibration),
		ph:      NewPageHinkley(cfg.PH),
		refuter: refute.NewChecker(cfg.Refute, sc.desc.AttrNames, sc.targetIdx, sc.desc.Machine),
	}, nil
}

// Check validates a sample against the model schema without ingesting
// it, so batch callers can reject a whole request before mutating any
// monitor state.
func (p *Processor) Check(s Sample) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return p.sc.check(&s)
}

// IngestChecked scores one sample that already passed Check, returning
// the events it caused, for callers that batch-validate up front: it
// skips the finiteness checks and counts nothing invalid. A sample with
// an event outside the schema still fails, before it touches monitor
// state.
func (p *Processor) IngestChecked(s Sample) ([]Event, error) {
	rec, err := p.sc.record(&s)
	if err != nil {
		return nil, err
	}
	return p.score(nil, &rec), nil
}

// appendRecord scores a record from Decoder.NextRecord over this
// processor's schema, appending the events it caused to events. A record
// carrying a schema violation, or built for another schema's width, is
// counted invalid and returned as an error without touching monitor
// state.
func (p *Processor) appendRecord(events []Event, rec *Record) ([]Event, error) {
	err := rec.Err
	if err == nil && len(rec.Row) != len(p.sc.desc.AttrNames) {
		err = fmt.Errorf("stream: record has %d columns, model %s schema has %d",
			len(rec.Row), p.sc.desc.Kind, len(p.sc.desc.AttrNames))
	}
	if err != nil {
		p.invalid.Add(1)
		return events, err
	}
	return p.score(events, rec), nil
}

// IngestBatch ingests records from Decoder.NextRecord over this
// processor's schema, in order, into one events slice. A record carrying
// a schema violation, or built for another schema's width, is counted
// invalid and stops the batch: the events of the records before it are
// returned with the error.
func (p *Processor) IngestBatch(recs []Record) ([]Event, error) {
	var events []Event
	if p.cfg.EmitSamples {
		// One sample event per section, plus room for the occasional
		// phase, drift or refute event.
		events = make([]Event, 0, len(recs)+len(recs)/4+1)
	}
	for i := range recs {
		var err error
		if events, err = p.appendRecord(events, &recs[i]); err != nil {
			return events, err
		}
	}
	return events, nil
}

// Flush marks the end of input: it closes the open refutation window if
// any section arrived since the last one closed, so a stream whose
// length is not a multiple of refute.WindowSections still gets a verdict
// for its tail. The error is always nil.
func (p *Processor) Flush() ([]Event, error) {
	return p.closeWindow(nil, int(p.scored)-1, p.bench), nil
}

// score scores one record, advances the monitors in sample order and
// appends the events it caused to events. Refutation windows close
// every refute.WindowSections sections counted from session start, so
// no event depends on how the samples were batched into calls.
func (p *Processor) score(events []Event, rec *Record) []Event {
	pred := p.m.Predict(rec.Row)
	sec := int(p.scored)
	p.scored++
	p.bench = rec.Bench

	// Phase tracking first, so a boundary confirmed by this section is
	// reflected in the section's own phase number.
	p.sc.featureVector(p.feat, rec.Row)
	for _, start := range p.online.Feed(p.feat) {
		p.bounds++
		events = append(events, Event{
			Type:       "phase",
			Section:    sec,
			Bench:      rec.Bench,
			Phase:      p.online.Phase(),
			PhaseStart: start,
		})
	}

	if !p.havePred {
		p.havePred = true
		p.ewmaPred = pred
	} else {
		p.ewmaPred += ewmaAlpha * (pred - p.ewmaPred)
	}
	// The observed EWMA seeds on the first sample that actually carries
	// a cpi field, however late it arrives; until then HaveObserved
	// stays false and renderers must not show it.
	if rec.HasCPI {
		if !p.haveObs {
			p.haveObs = true
			p.ewmaObs = rec.CPI
		} else {
			p.ewmaObs += ewmaAlpha * (rec.CPI - p.ewmaObs)
		}
	}

	if p.cfg.EmitSamples {
		ev := Event{
			Type:      "sample",
			Section:   sec,
			Bench:     rec.Bench,
			Phase:     p.online.Phase(),
			Predicted: pred,
		}
		if top, ok := p.m.TopContribution(rec.Row); ok {
			ev.TopEvent = top.Name
			ev.TopFraction = top.Fraction
		}
		if rec.HasCPI {
			obs := rec.CPI
			res := obs - pred
			ev.Observed = &obs
			ev.Residual = &res
		}
		events = append(events, ev)
	}

	if rec.HasCPI {
		if alarm, ok := p.ph.Feed(rec.CPI - pred); ok {
			p.alarms++
			events = append(events, Event{
				Type:         "drift",
				Section:      sec,
				Bench:        rec.Bench,
				Phase:        p.online.Phase(),
				Direction:    alarm.Direction,
				Stat:         alarm.Stat,
				MeanResidual: alarm.Mean,
				RunLength:    alarm.Samples,
			})
		}
	}

	// Consistency checking last: the relations judge the sample's
	// counters as reported, independent of what the model predicted.
	var obs float64
	if rec.HasCPI {
		obs = rec.CPI
	}
	p.refuter.Observe(rec.Row, obs, rec.HasCPI)
	if p.scored%refute.WindowSections == 0 {
		events = p.closeWindow(events, sec, rec.Bench)
	}
	return events
}

// closeWindow closes the open refutation window and appends its verdict
// transitions as refute events anchored at the window's last section.
func (p *Processor) closeWindow(events []Event, sec int, bench string) []Event {
	for _, tr := range p.refuter.EndWindow() {
		events = append(events, Event{
			Type:      "refute",
			Section:   sec,
			Bench:     bench,
			Phase:     p.online.Phase(),
			Relation:  tr.Relation,
			Verdict:   tr.Verdict,
			Deviation: tr.Deviation,
		})
	}
	return events
}

// Stats snapshots the monitor state.
func (p *Processor) Stats() Stats {
	return Stats{
		Accepted:        p.scored,
		Scored:          p.scored,
		Invalid:         p.invalid.Load(),
		Windows:         p.refuter.Windows(),
		PhaseBoundaries: p.bounds,
		DriftAlarms:     p.alarms,
		Phase:           p.online.Phase(),
		HaveObserved:    p.haveObs,
		EwmaObserved:    p.ewmaObs,
		EwmaPredicted:   p.ewmaPred,
		Refutation:      p.refuter.Summary(),
	}
}

// Refutation returns the full per-relation consistency report.
func (p *Processor) Refutation() refute.Report { return p.refuter.Report() }
