// Package refute is the counter-consistency refutation layer: it
// continuously cross-checks that a live event-counter stream actually
// satisfies the identity and inequality relations the Table I schema
// implies (internal/counters.Relations), plus per-machine variants
// derived from the internal/march spec the model was trained on.
//
// The point, following CounterPoint (Lindsay et al.) and Röhl et al.'s
// event-validation work, is to separate two failure modes that look the
// same from a residual plot: *model drift* — the workload moved and the
// tree's CPI law no longer fits, but the counters remain mutually
// consistent — and *counter refutation* — the counter stream itself
// violates relations that hold for any correct measurement, so the
// numbers (and anything predicted from them) cannot be trusted. The
// Page–Hinkley detector in internal/stream flags the former; this package
// flags the latter.
//
// Relations are declarative data (counters.RelationSpec), evaluated per
// sample with a tolerance band and aggregated per window of
// WindowSections sections. A relation's verdict moves consistent →
// suspect on its first violated window and suspect → refuted (sticky)
// after RefuteWindows consecutive violated windows; the session verdict
// is the worst relation verdict. Windows are cut by section count alone,
// so verdicts depend only on the section sequence — never on how a
// producer batched its requests — and the whole checker state, open
// window included, snapshots/restores through the stream-session drain
// path (see state.go).
package refute

import (
	"fmt"
	"math"

	"repro/internal/counters"
	"repro/internal/march"
)

// Verdict is the consistency status of one relation or a whole session.
type Verdict string

const (
	// Consistent means no relation violation has ever been observed.
	Consistent Verdict = "consistent"
	// Suspect means at least one violation was observed but the evidence
	// has not yet met the refutation threshold.
	Suspect Verdict = "suspect"
	// Refuted means a relation was violated in RefuteWindows consecutive
	// windows; the verdict is sticky for the life of the session.
	Refuted Verdict = "refuted"
)

// worse reports whether a is a more severe verdict than b.
func worse(a, b Verdict) bool {
	rank := func(v Verdict) int {
		switch v {
		case Refuted:
			return 2
		case Suspect:
			return 1
		default:
			return 0
		}
	}
	return rank(a) > rank(b)
}

// Config tunes the checker. The zero value enables checking; set
// Disabled to opt out entirely.
type Config struct {
	// Disabled turns consistency checking off.
	Disabled bool
}

// The tolerance band: a relation is violated when its deviation exceeds
// AbsTol + RelTol*scale, where scale is the larger magnitude of the two
// sides (at least 1). It absorbs float summation error on clean streams
// while catching any real single-counter corruption.
const (
	AbsTol = 1e-9
	RelTol = 1e-9
)

// RefuteWindows is the number of consecutive violated windows that
// promote a relation from suspect to refuted.
const RefuteWindows = 2

// cpiCol is the compiled term index meaning "read the observed CPI
// argument instead of a row column".
const cpiCol = -1

type term struct {
	idx  int
	coef float64
}

type compiled struct {
	spec       counters.RelationSpec
	leftConst  float64
	rightConst float64
	left       []term
	right      []term
	usesCPI    bool
}

// relStats is the live accumulator behind one RelationState.
type relStats struct {
	checked         uint64
	violations      uint64
	violatedWindows uint64
	streak          uint64
	maxDeviation    float64
	lastViolation   uint64 // 1-based sample ordinal, 0 = never
	verdict         Verdict
}

// WindowSections is the refutation window length: the stream layer
// closes a window after every WindowSections sections counted from
// session start, and once more when its input ends.
const WindowSections = 32

// Checker evaluates the relation catalog against a stream of samples.
// Not safe for concurrent use; the stream processor drives it from its
// serial fold.
type Checker struct {
	machine string
	rels    []compiled
	stats   []relStats
	winDev  []float64 // max deviation per relation within the open window
	open    uint64    // samples observed in the open window
	samples uint64
	windows uint64
}

// MachineRelations returns the per-machine relation variants for a spec:
// the CPI floor (every retired instruction costs at least 1/IssueWidth
// cycles) and the wrong-path bounds that tie the speculative-inclusive
// events (L1IM, ItlbM, DtlbL0LdM, Dtlb) to retired counts plus the
// machine's wrong-path activity per mispredict. These are exactly the
// bounds that are NOT machine-independent: a stream that is clean for an
// atom-class core (no wrong path) can legitimately exceed them on a
// netburst-class one.
func MachineRelations(spec march.MachineSpec) []counters.RelationSpec {
	var rels []counters.RelationSpec
	if floor, ok := spec.CPIFloor(); ok {
		rels = append(rels, counters.RelationSpec{
			Name:        "cpi-floor",
			Description: fmt.Sprintf("%s cannot sustain more than %g instructions per cycle", spec.Name, spec.Pipeline.IssueWidth),
			Kind:        counters.RelAtMost,
			Left:        counters.LinearExpr{Const: floor},
			Right:       counters.LinearExpr{Terms: []counters.Term{{Col: "CPI", Coef: 1}}},
		})
	}
	wpf := float64(spec.WrongPath.Fetches)
	wpl := float64(spec.WrongPath.Loads)
	rels = append(rels,
		counters.RelationSpec{
			Name:        "wp-l1i-fetch-bound",
			Description: fmt.Sprintf("at most one retired fetch plus %g wrong-path fetches per mispredict can miss L1I", wpf),
			Kind:        counters.RelAtMost,
			Left:        counters.LinearExpr{Terms: []counters.Term{{Col: "L1IM", Coef: 1}}},
			Right:       counters.LinearExpr{Const: 1, Terms: []counters.Term{{Col: "BrMisPr", Coef: wpf}}},
		},
		counters.RelationSpec{
			Name:        "wp-itlb-fetch-bound",
			Description: fmt.Sprintf("at most one retired fetch plus %g wrong-path fetches per mispredict can miss the ITLB", wpf),
			Kind:        counters.RelAtMost,
			Left:        counters.LinearExpr{Terms: []counters.Term{{Col: "ItlbM", Coef: 1}}},
			Right:       counters.LinearExpr{Const: 1, Terms: []counters.Term{{Col: "BrMisPr", Coef: wpf}}},
		},
		counters.RelationSpec{
			Name:        "wp-dtlb0-load-bound",
			Description: fmt.Sprintf("L0 DTLB load misses come from retired loads plus %g wrong-path loads per mispredict", wpl),
			Kind:        counters.RelAtMost,
			Left:        counters.LinearExpr{Terms: []counters.Term{{Col: "DtlbL0LdM", Coef: 1}}},
			Right:       counters.LinearExpr{Terms: []counters.Term{{Col: "InstLd", Coef: 1}, {Col: "BrMisPr", Coef: wpl}}},
		},
		counters.RelationSpec{
			Name:        "wp-dtlb-any-bound",
			Description: fmt.Sprintf("DTLB_MISSES.ANY comes from retired loads and stores plus %g wrong-path loads per mispredict", wpl),
			Kind:        counters.RelAtMost,
			Left:        counters.LinearExpr{Terms: []counters.Term{{Col: "Dtlb", Coef: 1}}},
			Right:       counters.LinearExpr{Terms: []counters.Term{{Col: "InstLd", Coef: 1}, {Col: "InstSt", Coef: 1}, {Col: "BrMisPr", Coef: wpl}}},
		},
	)
	return rels
}

// Catalog assembles the full relation list for a schema: the
// machine-independent Table I catalog, a non-negativity bound per schema
// column, and — when the machine is known — the march variants. target is
// the index of the CPI target column within cols (or -1); its name
// resolves to the observed CPI rather than a row column.
func Catalog(cols []string, target int, spec *march.MachineSpec) []counters.RelationSpec {
	rels := counters.Relations()
	for _, c := range cols {
		rels = append(rels, counters.NonNegRelation(c))
	}
	if spec != nil {
		rels = append(rels, MachineRelations(*spec)...)
	}
	return rels
}

// NewChecker compiles the catalog against a schema. cols are the stream
// schema's attribute names in row order; target is the index of the CPI
// target column (-1 if the schema has none) — the target's value is read
// from the observed CPI passed to Observe, never from the row (the stream
// layer zeroes that cell). machine optionally names the march spec whose
// per-machine relation variants apply; an unknown or empty name just
// skips the variants. Relations referencing columns the schema does not
// carry are dropped, so a model trained on a counter subset is checked
// against exactly the relations its schema can express.
func NewChecker(cfg Config, cols []string, target int, machine string) *Checker {
	c := &Checker{machine: machine}
	if cfg.Disabled {
		return c
	}
	var spec *march.MachineSpec
	if s, ok := march.Lookup(machine); ok {
		spec = &s
	}

	idx := make(map[string]int, len(cols))
	for i, name := range cols {
		if i == target {
			idx[name] = cpiCol
			continue
		}
		idx[name] = i
	}
	if target < 0 {
		// Schemas without a CPI target can still express CPI relations
		// through the observed value attached to each sample.
		if _, taken := idx["CPI"]; !taken {
			idx["CPI"] = cpiCol
		}
	}

	for _, rs := range Catalog(cols, target, spec) {
		comp, ok := compileRelation(rs, idx)
		if !ok {
			continue
		}
		c.rels = append(c.rels, comp)
		c.stats = append(c.stats, relStats{verdict: Consistent})
	}
	c.winDev = make([]float64, len(c.rels))
	return c
}

func compileRelation(spec counters.RelationSpec, idx map[string]int) (compiled, bool) {
	comp := compiled{spec: spec, leftConst: spec.Left.Const, rightConst: spec.Right.Const}
	build := func(e counters.LinearExpr) ([]term, bool) {
		ts := make([]term, 0, len(e.Terms))
		for _, t := range e.Terms {
			i, ok := idx[t.Col]
			if !ok {
				return nil, false
			}
			if i == cpiCol {
				comp.usesCPI = true
			}
			ts = append(ts, term{idx: i, coef: t.Coef})
		}
		return ts, true
	}
	var ok bool
	if comp.left, ok = build(spec.Left); !ok {
		return compiled{}, false
	}
	if comp.right, ok = build(spec.Right); !ok {
		return compiled{}, false
	}
	return comp, true
}

// Enabled reports whether the checker is actually evaluating relations.
func (c *Checker) Enabled() bool { return len(c.rels) > 0 }

// Relations returns the compiled catalog's specs, in evaluation order.
func (c *Checker) Relations() []counters.RelationSpec {
	specs := make([]counters.RelationSpec, len(c.rels))
	for i, r := range c.rels {
		specs[i] = r.spec
	}
	return specs
}

func eval(base float64, ts []term, row []float64, cpi float64) float64 {
	v := base
	for _, t := range ts {
		if t.idx == cpiCol {
			v += t.coef * cpi
		} else {
			v += t.coef * row[t.idx]
		}
	}
	return v
}

// Observe evaluates every relation against one sample row. row is the
// schema-ordered value vector (the target cell is ignored); cpi is the
// observed CPI when haveCPI is true. Relations that read CPI are skipped
// — not counted as checked — on samples without an observed CPI.
func (c *Checker) Observe(row []float64, cpi float64, haveCPI bool) {
	if !c.Enabled() {
		return
	}
	c.samples++
	c.open++
	for i := range c.rels {
		r := &c.rels[i]
		if r.usesCPI && !haveCPI {
			continue
		}
		st := &c.stats[i]
		st.checked++
		lv := eval(r.leftConst, r.left, row, cpi)
		rv := eval(r.rightConst, r.right, row, cpi)
		dev := lv - rv
		if r.spec.Kind == counters.RelIdentity {
			dev = math.Abs(dev)
		}
		scale := math.Max(math.Max(math.Abs(lv), math.Abs(rv)), 1)
		if dev <= AbsTol+RelTol*scale {
			continue
		}
		st.violations++
		st.lastViolation = c.samples
		if dev > st.maxDeviation {
			st.maxDeviation = dev
		}
		if dev > c.winDev[i] {
			c.winDev[i] = dev
		}
	}
}

// Transition records one relation's verdict change, reported by
// EndWindow so the stream layer can surface it as an event.
type Transition struct {
	Relation  string
	Verdict   Verdict
	Deviation float64
}

// EndWindow closes the open window: every relation violated within it
// advances its streak (promoting suspect → refuted after RefuteWindows
// in a row), every clean relation resets its streak. It returns the
// verdict transitions the window caused, in catalog order. A window
// that observed no sample is left open and changes nothing, so closing
// twice in a row is harmless.
func (c *Checker) EndWindow() []Transition {
	if !c.Enabled() || c.open == 0 {
		return nil
	}
	c.open = 0
	c.windows++
	var trans []Transition
	for i := range c.stats {
		st := &c.stats[i]
		dev := c.winDev[i]
		c.winDev[i] = 0
		if dev <= 0 {
			st.streak = 0
			continue
		}
		st.violatedWindows++
		st.streak++
		next := st.verdict
		if next != Refuted {
			next = Suspect
			if st.streak >= RefuteWindows {
				next = Refuted
			}
		}
		if next != st.verdict {
			st.verdict = next
			trans = append(trans, Transition{Relation: c.rels[i].spec.Name, Verdict: next, Deviation: dev})
		}
	}
	return trans
}

// Windows returns the number of closed windows.
func (c *Checker) Windows() uint64 { return c.windows }

// Verdict returns the session verdict: the worst relation verdict.
func (c *Checker) Verdict() Verdict {
	v := Consistent
	for i := range c.stats {
		if worse(c.stats[i].verdict, v) {
			v = c.stats[i].verdict
		}
	}
	return v
}

// Summary is the compact refutation digest carried in stream stats and
// per-request NDJSON summaries.
type Summary struct {
	Verdict          Verdict `json:"verdict"`
	Relations        int     `json:"relations"`
	Violations       uint64  `json:"violations"`
	SuspectRelations int     `json:"suspect_relations,omitempty"`
	RefutedRelations int     `json:"refuted_relations,omitempty"`
}

// Summary returns the current digest.
func (c *Checker) Summary() Summary {
	s := Summary{Verdict: c.Verdict(), Relations: len(c.rels)}
	for i := range c.stats {
		s.Violations += c.stats[i].violations
		switch c.stats[i].verdict {
		case Suspect:
			s.SuspectRelations++
		case Refuted:
			s.RefutedRelations++
		}
	}
	return s
}

// RelationReport is one relation's full standing: the declarative spec
// rendered for humans plus the accumulated statistics.
type RelationReport struct {
	RelationState
	Kind        counters.RelKind `json:"kind"`
	Formula     string           `json:"formula"`
	Description string           `json:"description"`
}

// Report is the full per-relation refutation report served by
// GET /v1/sessions/{id}/refutation and rendered by cmd/monitor -refute.
type Report struct {
	Verdict   Verdict          `json:"verdict"`
	Machine   string           `json:"machine,omitempty"`
	Samples   uint64           `json:"samples"`
	Windows   uint64           `json:"windows"`
	Relations []RelationReport `json:"relations"`
}

// Report returns the full report.
func (c *Checker) Report() Report {
	rep := Report{
		Verdict: c.Verdict(),
		Machine: c.machine,
		Samples: c.samples,
		Windows: c.windows,
	}
	for i, r := range c.rels {
		rep.Relations = append(rep.Relations, RelationReport{
			RelationState: c.relationState(i),
			Kind:          r.spec.Kind,
			Formula:       r.spec.String(),
			Description:   r.spec.Description,
		})
	}
	return rep
}
