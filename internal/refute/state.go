package refute

import (
	"fmt"
	"math"
)

// StateVersion is the refutation snapshot format version, the only one
// Validate accepts. A snapshot of another version is rejected: silently
// dropping or misreading refutation evidence on restore defeats the
// whole layer.
const StateVersion = 2

// RelationState is one relation's accumulated statistics, exactly as
// snapshotted. All fields round-trip byte-identically through JSON
// (float64 values encode in Go's shortest form and decode to the same
// bits), which the drain/restore differential tests rely on.
type RelationState struct {
	Name string `json:"name"`
	// Checked counts samples evaluated; Violations counts samples that
	// exceeded the tolerance band.
	Checked    uint64 `json:"checked"`
	Violations uint64 `json:"violations"`
	// ViolatedWindows counts closed windows containing a violation and
	// Streak the consecutive run of them ending at the last closed window.
	ViolatedWindows uint64 `json:"violated_windows"`
	Streak          uint64 `json:"streak"`
	// MaxDeviation is the worst observed excess over the relation bound.
	MaxDeviation float64 `json:"max_deviation"`
	// LastViolation is the 1-based ordinal of the most recent violating
	// sample (0 = never violated).
	LastViolation uint64  `json:"last_violation,omitempty"`
	Verdict       Verdict `json:"verdict"`
	// WindowDeviation is the worst excess within the open window (0 =
	// not violated there yet).
	WindowDeviation float64 `json:"window_deviation,omitempty"`
}

// State is a checker snapshot: everything needed to continue consistency
// checking byte-identically after a session drain/restore.
type State struct {
	SchemaVersion int    `json:"schema_version"`
	Machine       string `json:"machine,omitempty"`
	Samples       uint64 `json:"samples"`
	Windows       uint64 `json:"windows"`
	// WindowSamples counts the samples observed in the open window.
	WindowSamples uint64          `json:"window_samples,omitempty"`
	Relations     []RelationState `json:"relations"`
}

func (c *Checker) relationState(i int) RelationState {
	st := c.stats[i]
	return RelationState{
		Name:            c.rels[i].spec.Name,
		Checked:         st.checked,
		Violations:      st.violations,
		ViolatedWindows: st.violatedWindows,
		Streak:          st.streak,
		MaxDeviation:    st.maxDeviation,
		LastViolation:   st.lastViolation,
		Verdict:         st.verdict,
		WindowDeviation: c.winDev[i],
	}
}

// State snapshots the checker, open window included, so a snapshot can
// be taken at any section.
func (c *Checker) State() State {
	st := State{
		SchemaVersion: StateVersion,
		Machine:       c.machine,
		Samples:       c.samples,
		Windows:       c.windows,
		WindowSamples: c.open,
	}
	for i := range c.rels {
		st.Relations = append(st.Relations, c.relationState(i))
	}
	return st
}

// Validate checks a decoded snapshot's internal consistency without
// reference to any catalog: version, verdict vocabulary, count ordering
// and deviation finiteness. RestoreState additionally checks the
// snapshot against the live catalog.
func (s State) Validate() error {
	if s.SchemaVersion != StateVersion {
		return fmt.Errorf("refute: snapshot declares schema_version %d; this build reads version %d only",
			s.SchemaVersion, StateVersion)
	}
	seen := make(map[string]bool, len(s.Relations))
	for i, r := range s.Relations {
		if r.Name == "" {
			return fmt.Errorf("refute: relation %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("refute: duplicate relation %q in snapshot", r.Name)
		}
		seen[r.Name] = true
		switch r.Verdict {
		case Consistent, Suspect, Refuted:
		default:
			return fmt.Errorf("refute: relation %q has unknown verdict %q", r.Name, r.Verdict)
		}
		if r.Violations > r.Checked {
			return fmt.Errorf("refute: relation %q counts %d violations out of %d checked", r.Name, r.Violations, r.Checked)
		}
		if r.Checked > s.Samples {
			return fmt.Errorf("refute: relation %q checked %d samples of %d ingested", r.Name, r.Checked, s.Samples)
		}
		if r.ViolatedWindows > s.Windows || r.Streak > r.ViolatedWindows {
			return fmt.Errorf("refute: relation %q window counts are inconsistent", r.Name)
		}
		if math.IsNaN(r.MaxDeviation) || math.IsInf(r.MaxDeviation, 0) || r.MaxDeviation < 0 {
			return fmt.Errorf("refute: relation %q max_deviation %v is not a finite non-negative value", r.Name, r.MaxDeviation)
		}
		// A consistent relation has no violated closed window; any
		// violation it has sits in the open window, not yet judged.
		if r.Verdict == Consistent && (r.ViolatedWindows > 0 || (r.Violations > 0) != (r.WindowDeviation > 0)) ||
			r.Verdict != Consistent && r.Violations == 0 {
			return fmt.Errorf("refute: relation %q verdict %q disagrees with %d violations", r.Name, r.Verdict, r.Violations)
		}
		if r.LastViolation > s.Samples {
			return fmt.Errorf("refute: relation %q last violation %d beyond %d samples", r.Name, r.LastViolation, s.Samples)
		}
		if math.IsNaN(r.WindowDeviation) || r.WindowDeviation < 0 || r.WindowDeviation > r.MaxDeviation ||
			(r.WindowDeviation > 0 && (s.WindowSamples == 0 || r.Violations == 0)) {
			return fmt.Errorf("refute: relation %q window_deviation %v does not fit its max_deviation %v and %d open-window samples",
				r.Name, r.WindowDeviation, r.MaxDeviation, s.WindowSamples)
		}
	}
	if s.WindowSamples > s.Samples {
		return fmt.Errorf("refute: %d open-window samples of %d ingested", s.WindowSamples, s.Samples)
	}
	return nil
}

// RestoreState loads a snapshot into the checker. The snapshot must have
// been taken by a checker with the identical compiled catalog — same
// relations in the same order — which is how a drain/restore across
// replicas detects a schema or machine mismatch instead of silently
// mis-attributing statistics.
func (c *Checker) RestoreState(s State) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if !c.Enabled() {
		if len(s.Relations) == 0 {
			return nil
		}
		return fmt.Errorf("refute: snapshot carries %d relations but checking is disabled", len(s.Relations))
	}
	if s.Machine != c.machine {
		return fmt.Errorf("refute: snapshot machine %q does not match checker machine %q", s.Machine, c.machine)
	}
	if len(s.Relations) != len(c.rels) {
		return fmt.Errorf("refute: snapshot carries %d relations, catalog has %d", len(s.Relations), len(c.rels))
	}
	for i, r := range s.Relations {
		if r.Name != c.rels[i].spec.Name {
			return fmt.Errorf("refute: snapshot relation %d is %q, catalog has %q", i, r.Name, c.rels[i].spec.Name)
		}
	}
	c.samples = s.Samples
	c.windows = s.Windows
	c.open = s.WindowSamples
	for i, r := range s.Relations {
		c.stats[i] = relStats{
			checked:         r.Checked,
			violations:      r.Violations,
			violatedWindows: r.ViolatedWindows,
			streak:          r.Streak,
			maxDeviation:    r.MaxDeviation,
			lastViolation:   r.LastViolation,
			verdict:         r.Verdict,
		}
		c.winDev[i] = r.WindowDeviation
	}
	return nil
}
