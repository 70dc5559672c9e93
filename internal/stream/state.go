package stream

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/phases"
	"repro/internal/refute"
)

// Serializable processor state, for the serve layer's session
// snapshot/restore: a live monitor session can be drained on one
// replica and restored on another, continuing its timeline exactly —
// same section numbering, same phase, same drift accumulator, same open
// refutation window. Every sample is scored on arrival, so a snapshot
// can be taken between any two sections. All floats survive the JSON
// round trip bit-exactly
// (Go marshals float64 in shortest-round-trip form),
// so Stats of a drained-and-restored processor is byte-identical to
// the original's and subsequent events match an uninterrupted run.

// PHState is the Page–Hinkley detector's accumulated state.
type PHState struct {
	N       int     `json:"n"`
	Mean    float64 `json:"mean"`
	MUp     float64 `json:"m_up"`
	MinUp   float64 `json:"min_up"`
	MDown   float64 `json:"m_down"`
	MaxDown float64 `json:"max_down"`
}

// State snapshots the detector (configuration excluded: the restorer
// supplies it, exactly as NewPageHinkley does).
func (p *PageHinkley) State() PHState {
	return PHState{N: p.n, Mean: p.mean, MUp: p.mUp, MinUp: p.minUp,
		MDown: p.mDown, MaxDown: p.maxDown}
}

// RestoreState overwrites the accumulated state, keeping the
// configuration.
func (p *PageHinkley) RestoreState(st PHState) {
	p.n, p.mean = st.N, st.Mean
	p.mUp, p.minUp = st.MUp, st.MinUp
	p.mDown, p.maxDown = st.MDown, st.MaxDown
}

// ProcessorState is one monitor session's full serializable state.
type ProcessorState struct {
	// SchemaVersion guards the wire format; bump on breaking changes.
	SchemaVersion int `json:"schema_version"`
	// Counters, mirroring Stats (Windows lives in Refutation).
	Scored          uint64 `json:"scored"`
	Invalid         uint64 `json:"invalid"`
	PhaseBoundaries uint64 `json:"phase_boundaries"`
	DriftAlarms     uint64 `json:"drift_alarms"`
	// Rolling CPI means and their seeding flags.
	HavePred bool    `json:"have_pred"`
	HaveObs  bool    `json:"have_obs"`
	EwmaPred float64 `json:"ewma_pred"`
	EwmaObs  float64 `json:"ewma_obs"`
	// Bench is the last scored sample's label.
	Bench string `json:"bench,omitempty"`
	// Monitor internals.
	Phases phases.OnlineState `json:"phases"`
	PH     PHState            `json:"ph"`
	// Refutation is the counter-consistency checker's accumulated state
	// (nil when checking is disabled).
	Refutation *refute.State `json:"refutation,omitempty"`
}

// processorStateVersion is the ProcessorState wire version;
// RestoreProcessor rejects every other one.
const processorStateVersion = 3

// State snapshots the processor. The caller must hold whatever lock
// serializes Ingest calls (the processor itself is not concurrency-
// safe, and neither is this).
func (p *Processor) State() ProcessorState {
	var ref *refute.State
	if p.refuter.Enabled() {
		st := p.refuter.State()
		ref = &st
	}
	return ProcessorState{
		SchemaVersion:   processorStateVersion,
		Refutation:      ref,
		Scored:          p.scored,
		Invalid:         p.invalid.Load(),
		PhaseBoundaries: p.bounds,
		DriftAlarms:     p.alarms,
		HavePred:        p.havePred,
		HaveObs:         p.haveObs,
		EwmaPred:        p.ewmaPred,
		EwmaObs:         p.ewmaObs,
		Bench:           p.bench,
		Phases:          p.online.State(),
		PH:              p.ph.State(),
	}
}

// RestoreProcessor rebuilds a processor for model m under cfg from a
// drained snapshot. The model and configuration must match what the
// drained processor ran with (same schema, detector tuning); mismatches
// that are detectable — another wire version, a missing refutation
// block while checking is on, debounce-ring drift — are errors, and so
// is a state no processor writes, such as a negative drift-detector
// sample count.
func RestoreProcessor(m model.Model, cfg Config, st ProcessorState) (*Processor, error) {
	if st.SchemaVersion != processorStateVersion {
		return nil, fmt.Errorf("stream: processor state version %d is not supported; this build reads version %d only",
			st.SchemaVersion, processorStateVersion)
	}
	if st.PH.N < 0 {
		return nil, fmt.Errorf("stream: snapshot drift detector has a negative sample count %d", st.PH.N)
	}
	p, err := NewProcessor(m, cfg)
	if err != nil {
		return nil, err
	}
	online, err := phases.RestoreOnline(p.cfg.Phases, st.Phases, len(p.sc.featIdx))
	if err != nil {
		return nil, err
	}
	p.online = online
	p.ph.RestoreState(st.PH)
	switch {
	case st.Refutation != nil:
		if err := p.refuter.RestoreState(*st.Refutation); err != nil {
			return nil, err
		}
	case p.refuter.Enabled():
		// Checking from scratch would report a refuted session consistent.
		return nil, fmt.Errorf("stream: snapshot has no refutation state, but this processor checks counter relations")
	}
	p.scored = st.Scored
	p.invalid.Store(st.Invalid)
	p.bench = st.Bench
	p.bounds = st.PhaseBoundaries
	p.alarms = st.DriftAlarms
	p.havePred, p.haveObs = st.HavePred, st.HaveObs
	p.ewmaPred, p.ewmaObs = st.EwmaPred, st.EwmaObs
	return p, nil
}
