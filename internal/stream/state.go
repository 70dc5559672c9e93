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
// buffered-but-unscored samples. All floats survive the JSON round
// trip bit-exactly (Go marshals float64 in shortest-round-trip form),
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

// Snapshot returns the buffered records oldest-first plus the dropped
// counter — the ring's full logical state (capacity and policy are
// configuration, not state).
func (r *Ring) Snapshot() ([]Record, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out, r.dropped
}

// restore refills a fresh ring; fails if the pending records exceed
// capacity (the restoring side is configured with a smaller buffer).
func (r *Ring) restore(pending []Record, dropped uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(pending) > len(r.buf) {
		return fmt.Errorf("stream: %d pending samples exceed ring capacity %d", len(pending), len(r.buf))
	}
	for i, s := range pending {
		r.buf[i] = s
	}
	r.head, r.n = 0, len(pending)
	r.dropped = dropped
	return nil
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
	// Pending are buffered-but-unscored samples (oldest first); Dropped
	// is the ring's eviction counter.
	Pending []Sample `json:"pending,omitempty"`
	Dropped uint64   `json:"dropped"`
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
	recs, dropped := p.ring.Snapshot()
	var pending []Sample
	for i := range recs {
		pending = append(pending, p.sc.sample(&recs[i]))
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
		Dropped:         dropped,
		Phases:          p.online.State(),
		PH:              p.ph.State(),
	}
}

// RestoreProcessor rebuilds a processor for model m under cfg from a
// drained snapshot. The model and configuration must match what the
// drained processor ran with (same schema, window, detector tuning);
// mismatches that are detectable — wrong schema, oversized pending
// buffer, debounce-ring drift — are errors.
func RestoreProcessor(m model.Model, cfg Config, st ProcessorState) (*Processor, error) {
	if st.SchemaVersion < 1 || st.SchemaVersion > processorStateVersion {
		return nil, fmt.Errorf("stream: unsupported processor state version %d (want 1..%d)",
			st.SchemaVersion, processorStateVersion)
	}
	p, err := NewProcessor(m, cfg)
	if err != nil {
		return nil, err
	}
	pending := make([]Record, len(st.Pending))
	for i := range st.Pending {
		if pending[i], err = p.record(&st.Pending[i]); err != nil {
			return nil, fmt.Errorf("stream: pending sample %d does not fit the model schema: %w", i, err)
		}
	}
	if err := p.ring.restore(pending, st.Dropped); err != nil {
		return nil, err
	}
	online, err := phases.RestoreOnline(p.cfg.Phases, st.Phases)
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
