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
// same section numbering, same phase, same drift accumulator, same
// pending samples. All floats survive the JSON round trip bit-exactly
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
	// Counters, mirroring Stats.
	Scored          uint64 `json:"scored"`
	Invalid         uint64 `json:"invalid"`
	Windows         uint64 `json:"windows"`
	PhaseBoundaries uint64 `json:"phase_boundaries"`
	DriftAlarms     uint64 `json:"drift_alarms"`
	// Rolling CPI means and their seeding flags.
	HavePred bool    `json:"have_pred"`
	HaveObs  bool    `json:"have_obs"`
	EwmaPred float64 `json:"ewma_pred"`
	EwmaObs  float64 `json:"ewma_obs"`
	// Pending are the accepted but unscored samples (oldest first),
	// always fewer than the window.
	Pending []Sample `json:"pending,omitempty"`
	// Dropped is always 0: no processor drops a sample. It stays only so
	// existing dumps decode and the wire format is unchanged; a restore
	// rejects any other value.
	Dropped uint64 `json:"dropped"`
	// Monitor internals.
	Phases phases.OnlineState `json:"phases"`
	PH     PHState            `json:"ph"`
	// Refutation is the counter-consistency checker's accumulated state
	// (nil when checking is disabled or the snapshot predates it).
	Refutation *refute.State `json:"refutation,omitempty"`
}

// processorStateVersion is the current ProcessorState wire version.
// Version 1 (PR 9) lacked the refutation field; v1 snapshots still
// restore, with consistency checking starting fresh.
const processorStateVersion = 2

// State snapshots the processor. The caller must hold whatever lock
// serializes Ingest calls (the processor itself is not concurrency-
// safe, and neither is this).
func (p *Processor) State() ProcessorState {
	var pending []Sample
	for i := range p.pending {
		pending = append(pending, p.sc.sample(&p.pending[i]))
	}
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
		Windows:         p.windows,
		PhaseBoundaries: p.bounds,
		DriftAlarms:     p.alarms,
		HavePred:        p.havePred,
		HaveObs:         p.haveObs,
		EwmaPred:        p.ewmaPred,
		EwmaObs:         p.ewmaObs,
		Pending:         pending,
		Phases:          p.online.State(),
		PH:              p.ph.State(),
	}
}

// RestoreProcessor rebuilds a processor for model m under cfg from a
// drained snapshot. The model and configuration must match what the
// drained processor ran with (same schema, window, detector tuning);
// mismatches that are detectable — wrong schema, a pending list that
// fills a whole window, a non-zero drop count, debounce-ring drift —
// are errors.
func RestoreProcessor(m model.Model, cfg Config, st ProcessorState) (*Processor, error) {
	if st.SchemaVersion < 1 || st.SchemaVersion > processorStateVersion {
		return nil, fmt.Errorf("stream: unsupported processor state version %d (want 1..%d)",
			st.SchemaVersion, processorStateVersion)
	}
	p, err := NewProcessor(m, cfg)
	if err != nil {
		return nil, err
	}
	// A processor with this config scores every full window as it
	// fills, so it never holds Window pending samples.
	if len(st.Pending) >= p.cfg.Window {
		return nil, fmt.Errorf("stream: %d pending samples fill the %d-sample window", len(st.Pending), p.cfg.Window)
	}
	if st.Dropped != 0 {
		return nil, fmt.Errorf("stream: snapshot reports %d dropped samples, want 0", st.Dropped)
	}
	for i := range st.Pending {
		rec, err := p.record(&st.Pending[i])
		if err != nil {
			return nil, fmt.Errorf("stream: pending sample %d does not fit the model schema: %w", i, err)
		}
		p.pending = append(p.pending, rec)
	}
	online, err := phases.RestoreOnline(p.cfg.Phases, st.Phases, len(p.sc.featIdx))
	if err != nil {
		return nil, err
	}
	p.online = online
	p.ph.RestoreState(st.PH)
	if st.Refutation != nil {
		if err := p.refuter.RestoreState(*st.Refutation); err != nil {
			return nil, err
		}
	}
	p.scored = st.Scored
	p.invalid.Store(st.Invalid)
	p.windows = st.Windows
	p.bounds = st.PhaseBoundaries
	p.alarms = st.DriftAlarms
	p.havePred, p.haveObs = st.HavePred, st.HaveObs
	p.ewmaPred, p.ewmaObs = st.EwmaPred, st.EwmaObs
	return p, nil
}
