package stream

import (
	"fmt"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/phases"
	"repro/internal/refute"
)

// Config tunes a Processor.
type Config struct {
	// Jobs is the scoring worker count (0 = all cores, 1 = serial).
	// Events are byte-identical at any value.
	Jobs int
	// Window is the number of buffered samples scored per parallel
	// batch. Larger windows amortize fan-out overhead; the window never
	// delays monitor state, which always advances in sample order.
	Window int
	// Buffer is the ring capacity; it is raised to Window if smaller,
	// since a full window must fit to be scored.
	Buffer int
	// Policy is the ring's overflow policy.
	Policy Policy
	// Calibration is the number of leading sections the phase tracker
	// uses to estimate counter noise before reporting boundaries.
	Calibration int
	// Phases tunes the phase detector (zero value = phases defaults).
	Phases phases.Config
	// PH tunes the drift detector (zero value = PH defaults).
	PH PHConfig
	// Contributions attaches the top CPI contributor (the paper's Eq. 4
	// "how much" answer) to every sample event.
	Contributions bool
	// EmitSamples emits a "sample" event per scored section; phase, drift
	// and refute events are always emitted.
	EmitSamples bool
	// Refute tunes the counter-consistency checker (zero value = checking
	// on with refute defaults; set Refute.Disabled to opt out).
	Refute refute.Config
}

// DefaultConfig returns monitoring-friendly defaults.
func DefaultConfig() Config {
	return Config{
		Jobs:          0,
		Window:        32,
		Buffer:        256,
		Policy:        Block,
		Calibration:   32,
		Phases:        phases.DefaultConfig(),
		PH:            DefaultPHConfig(),
		Contributions: true,
		EmitSamples:   true,
	}
}

func (c Config) sanitized() Config {
	if c.Window < 1 {
		c.Window = DefaultConfig().Window
	}
	if c.Buffer < c.Window {
		c.Buffer = c.Window
	}
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

	// refute fields: a counter-consistency relation changed verdict at
	// the end of the window containing Section.
	Relation  string         `json:"relation,omitempty"`
	Verdict   refute.Verdict `json:"verdict,omitempty"`
	Deviation float64        `json:"deviation,omitempty"`
}

// Stats is a monitor state snapshot, exposed on /metrics and in CLI
// summaries.
type Stats struct {
	Accepted        uint64 `json:"accepted"`
	Scored          uint64 `json:"scored"`
	Invalid         uint64 `json:"invalid"`
	Depth           int    `json:"depth"`
	Dropped         uint64 `json:"dropped"`
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
	ring    *Ring
	online  *phases.Online
	ph      *PageHinkley
	refuter *refute.Checker

	scored   uint64
	invalid  atomic.Uint64
	windows  uint64
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
		ring:    NewRing(cfg.Buffer, cfg.Policy),
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

// Ingest validates and buffers one sample, then scores every full
// window. The returned events cover all sections scored by this call
// (possibly none, while the window fills). Invalid samples are counted
// and returned as an error without touching monitor state.
func (p *Processor) Ingest(s Sample) ([]Event, error) {
	rec, err := p.record(&s)
	if err != nil {
		p.invalid.Add(1)
		return nil, err
	}
	return p.ingest(rec)
}

// IngestChecked is Ingest for a sample that already passed Check, for
// callers that batch-validate up front: it skips the finiteness checks
// and counts nothing invalid. A sample with an event outside the schema
// still fails, before it touches monitor state.
func (p *Processor) IngestChecked(s Sample) ([]Event, error) {
	rec, err := p.sc.record(&s)
	if err != nil {
		return nil, err
	}
	return p.ingest(rec)
}

// record validates a sample and resolves it onto the schema's layout.
func (p *Processor) record(s *Sample) (Record, error) {
	if err := s.Validate(); err != nil {
		return Record{}, err
	}
	return p.sc.record(s)
}

// IngestRecord is Ingest for a record from Decoder.NextRecord over this
// processor's schema. A record carrying a schema violation, or built for
// another schema's width, is counted invalid and returned as an error
// without touching monitor state.
func (p *Processor) IngestRecord(rec Record) ([]Event, error) {
	err := rec.Err
	if err == nil && len(rec.Row) != len(p.sc.desc.AttrNames) {
		err = fmt.Errorf("stream: record has %d columns, model %s schema has %d",
			len(rec.Row), p.sc.desc.Kind, len(p.sc.desc.AttrNames))
	}
	if err != nil {
		p.invalid.Add(1)
		return nil, err
	}
	return p.ingest(rec)
}

// IngestBatch ingests recs (see IngestRecord) in order, then scores the
// final partial window as Flush does, so a batch caller gets an answer
// for every record. On an error it stops and returns the events of the
// records before it.
func (p *Processor) IngestBatch(recs []Record) ([]Event, error) {
	var events []Event
	for i := range recs {
		evs, err := p.IngestRecord(recs[i])
		if err != nil {
			return events, err
		}
		events = appendEvents(events, evs)
	}
	evs, err := p.Flush()
	if err != nil {
		return events, err
	}
	return appendEvents(events, evs), nil
}

// ingest buffers one record and scores every full window.
func (p *Processor) ingest(rec Record) ([]Event, error) {
	if err := p.ring.Push(rec); err != nil {
		return nil, err
	}
	return p.scoreWindows(p.cfg.Window)
}

// Flush scores whatever remains in the ring regardless of window fill.
func (p *Processor) Flush() ([]Event, error) { return p.scoreWindows(1) }

// scoreWindows scores windows while at least min records are buffered.
func (p *Processor) scoreWindows(min int) ([]Event, error) {
	var events []Event
	for p.ring.Depth() >= min {
		evs, err := p.scoreBatch(p.ring.PopN(p.cfg.Window))
		if err != nil {
			return events, err
		}
		events = appendEvents(events, evs)
	}
	return events, nil
}

// appendEvents appends src to dst, handing src back as is when dst is
// empty — the common case of one window per call copies nothing.
func appendEvents(dst, src []Event) []Event {
	if len(dst) == 0 {
		return src
	}
	return append(dst, src...)
}

// scoredSample carries one record's parallel scoring result into the
// serial monitor fold.
type scoredSample struct {
	rec  Record
	pred float64
	top  *model.Contribution
}

// scoreBatch fans the batch out through parallel.Map (ordered, so the
// fold below sees sample order regardless of worker count), then
// advances the monitors serially.
func (p *Processor) scoreBatch(batch []Record) ([]Event, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	scoredBatch, err := parallel.Map(parallel.Config{Jobs: p.cfg.Jobs}.ForItems(len(batch)), batch,
		func(_ int, rec Record) (scoredSample, error) {
			out := scoredSample{rec: rec, pred: p.m.Predict(rec.Row)}
			if p.cfg.Contributions {
				if contribs := p.m.Contributions(rec.Row); len(contribs) > 0 {
					out.top = &contribs[0]
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, fmt.Errorf("stream: scoring window: %w", err)
	}
	p.windows++

	var events []Event
	if p.cfg.EmitSamples {
		// One sample event per section, plus room for the occasional
		// phase, drift or refute event.
		events = make([]Event, 0, len(scoredBatch)+len(scoredBatch)/4+1)
	}
	for i := range scoredBatch {
		ss := &scoredBatch[i]
		sec := int(p.scored)
		p.scored++

		// Phase tracking first, so a boundary confirmed by this section
		// is reflected in the section's own phase number.
		for _, start := range p.online.Feed(p.sc.featureVector(ss.rec.Row)) {
			p.bounds++
			events = append(events, Event{
				Type:       "phase",
				Section:    sec,
				Bench:      ss.rec.Bench,
				Phase:      p.online.Phase(),
				PhaseStart: start,
			})
		}

		if !p.havePred {
			p.havePred = true
			p.ewmaPred = ss.pred
		} else {
			p.ewmaPred += ewmaAlpha * (ss.pred - p.ewmaPred)
		}
		// The observed EWMA seeds on the first sample that actually
		// carries a cpi field, however late it arrives; until then
		// HaveObserved stays false and renderers must not show it.
		if ss.rec.HasCPI {
			if !p.haveObs {
				p.haveObs = true
				p.ewmaObs = ss.rec.CPI
			} else {
				p.ewmaObs += ewmaAlpha * (ss.rec.CPI - p.ewmaObs)
			}
		}

		if p.cfg.EmitSamples {
			ev := Event{
				Type:      "sample",
				Section:   sec,
				Bench:     ss.rec.Bench,
				Phase:     p.online.Phase(),
				Predicted: ss.pred,
			}
			if ss.top != nil {
				ev.TopEvent = ss.top.Name
				ev.TopFraction = ss.top.Fraction
			}
			if ss.rec.HasCPI {
				obs := ss.rec.CPI
				res := obs - ss.pred
				ev.Observed = &obs
				ev.Residual = &res
			}
			events = append(events, ev)
		}

		if ss.rec.HasCPI {
			if alarm, ok := p.ph.Feed(ss.rec.CPI - ss.pred); ok {
				p.alarms++
				events = append(events, Event{
					Type:         "drift",
					Section:      sec,
					Bench:        ss.rec.Bench,
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
		if ss.rec.HasCPI {
			obs = ss.rec.CPI
		}
		p.refuter.Observe(ss.rec.Row, obs, ss.rec.HasCPI)
	}

	// Every scoring batch closes one consistency window, so refutation
	// state never straddles a batch boundary and session snapshots taken
	// between batches are complete. Verdict transitions become events
	// anchored at the window's last section.
	lastSec := int(p.scored) - 1
	last := &scoredBatch[len(scoredBatch)-1]
	for _, tr := range p.refuter.EndWindow() {
		events = append(events, Event{
			Type:      "refute",
			Section:   lastSec,
			Bench:     last.rec.Bench,
			Phase:     p.online.Phase(),
			Relation:  tr.Relation,
			Verdict:   tr.Verdict,
			Deviation: tr.Deviation,
		})
	}
	return events, nil
}

// Stats snapshots the monitor state.
func (p *Processor) Stats() Stats {
	return Stats{
		Accepted:        p.scored + uint64(p.ring.Depth()),
		Scored:          p.scored,
		Invalid:         p.invalid.Load(),
		Depth:           p.ring.Depth(),
		Dropped:         p.ring.Dropped(),
		Windows:         p.windows,
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

// Describe exposes the underlying model's description.
func (p *Processor) Describe() model.Description { return p.sc.desc }
