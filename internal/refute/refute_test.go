package refute

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/march"
	"repro/internal/proptest"
	"repro/internal/sim/cpu"
	"repro/internal/sim/trace"
	"repro/internal/workload"
)

// tableICols returns the Table I schema column names (CPI first).
func tableICols() []string {
	tab := counters.TableI()
	cols := make([]string, len(tab))
	for i, m := range tab {
		cols[i] = m.Name
	}
	return cols
}

func newTableIChecker(t *testing.T, machine string) *Checker {
	t.Helper()
	c := NewChecker(Config{}, tableICols(), 0, machine)
	if !c.Enabled() {
		t.Fatal("checker disabled for the full Table I schema")
	}
	return c
}

// feedRows drives rows (Table I instances, CPI in column 0) through the
// checker, closing a window every window rows and at the end.
func feedRows(c *Checker, rows [][]float64, window int) {
	for i, row := range rows {
		c.Observe(row, row[0], true)
		if (i+1)%window == 0 {
			c.EndWindow()
		}
	}
	if len(rows)%window != 0 {
		c.EndWindow()
	}
}

// TestCatalogComplete pins the catalog's shape: relation names are
// unique, every referenced column is a Table I attribute (or the CPI
// target), and — the completeness half — every relation in the assembled
// catalog compiles against the full Table I schema, so nothing in the
// catalog can silently drop out of checking.
func TestCatalogComplete(t *testing.T) {
	cols := tableICols()
	known := make(map[string]bool, len(cols))
	for _, c := range cols {
		known[c] = true
	}
	for _, spec := range march.All() {
		c := newTableIChecker(t, spec.Name)
		assembled := Catalog(cols, 0, &spec)
		if got, want := len(c.Relations()), len(assembled); got != want {
			t.Fatalf("%s: %d of %d catalog relations compiled", spec.Name, got, want)
		}
		seen := map[string]bool{}
		for _, r := range c.Relations() {
			if seen[r.Name] {
				t.Fatalf("%s: duplicate relation name %q", spec.Name, r.Name)
			}
			seen[r.Name] = true
			if len(r.Columns()) == 0 {
				t.Fatalf("%s: relation %q reads no columns", spec.Name, r.Name)
			}
			for _, col := range r.Columns() {
				if !known[col] {
					t.Fatalf("%s: relation %q reads unknown column %q", spec.Name, r.Name, col)
				}
			}
			if r.String() == "" || r.Description == "" {
				t.Fatalf("%s: relation %q lacks a formula or description", spec.Name, r.Name)
			}
		}
	}
}

// TestCleanSuiteConsistent is the zero-false-positive gate: the seed
// benchmark suite, collected on every machine preset, must not violate a
// single relation. Any violation here means a catalog entry is not a
// theorem of the simulated machine and must be removed or weakened.
func TestCleanSuiteConsistent(t *testing.T) {
	if testing.Short() {
		t.Skip("clean-suite sweep is covered by the full run")
	}
	suite := workload.SuiteScaled(0.05)
	for _, spec := range march.All() {
		cfg := counters.CollectConfigFor(spec)
		cfg.SectionLen = 2000
		col, err := counters.CollectSuite(suite, cfg)
		if err != nil {
			t.Fatalf("%s: collect: %v", spec.Name, err)
		}
		c := newTableIChecker(t, spec.Name)
		rows := make([][]float64, col.Data.Len())
		for i := range rows {
			rows[i] = col.Data.Row(i)
		}
		feedRows(c, rows, 16)
		sum := c.Summary()
		if sum.Verdict != Consistent || sum.Violations != 0 {
			t.Fatalf("%s: clean suite verdict %q with %d violations:\n%s",
				spec.Name, sum.Verdict, sum.Violations, reportViolations(c))
		}
	}
}

func reportViolations(c *Checker) string {
	var b strings.Builder
	for _, r := range c.Report().Relations {
		if r.Violations > 0 {
			b.WriteString(r.Name + ": " + r.Formula + "\n")
		}
	}
	return b.String()
}

// TestCleanGeneratedTracesConsistent: clean simulator output stays
// consistent for generated traces too, across every machine preset — the
// catalog holds for the machine's physics, not for one workload family.
func TestCleanGeneratedTracesConsistent(t *testing.T) {
	specs := march.All()
	proptest.Run(t, "clean-generated-consistent", 20, func(t *testing.T, r *proptest.Rand) {
		spec := specs[r.Intn(len(specs))]
		core := cpu.New(spec.CPUConfig(), spec.Geometry(), spec.BranchConfig())
		c := newTableIChecker(t, spec.Name)
		for w := 0; w < 4; w++ {
			core.ResetSection()
			insts := proptest.Insts(r, 3000)
			core.Run(&trace.SliceStream{Insts: insts})
			row := counters.Row(core.Counters())
			c.Observe(row, row[0], true)
			c.EndWindow()
		}
		if sum := c.Summary(); sum.Verdict != Consistent || sum.Violations != 0 {
			t.Fatalf("%s: generated trace verdict %q with %d violations:\n%s",
				spec.Name, sum.Verdict, sum.Violations, reportViolations(c))
		}
	})
}

// TestCleanPerfDatasetConsistent: the synthetic PerfDataset family (the
// serving tests' demo schema) never trips the subset catalog its four
// columns can express.
func TestCleanPerfDatasetConsistent(t *testing.T) {
	proptest.Run(t, "clean-perfdataset-consistent", 30, func(t *testing.T, r *proptest.Rand) {
		d := proptest.PerfDataset(r, 64)
		c := NewChecker(Config{}, proptest.PerfAttrNames, 0, "")
		if !c.Enabled() {
			t.Fatal("checker disabled for the demo schema")
		}
		rows := make([][]float64, d.Len())
		for i := range rows {
			rows[i] = d.Row(i)
		}
		feedRows(c, rows, 8)
		if sum := c.Summary(); sum.Verdict != Consistent || sum.Violations != 0 {
			t.Fatalf("clean PerfDataset verdict %q with %d violations", sum.Verdict, sum.Violations)
		}
	})
}

// cleanRow collects one real Table I row on the given machine, the
// baseline the corruption tests perturb. Collecting per machine matters:
// a row is only guaranteed clean against the wrong-path bounds of the
// machine that produced it.
func cleanRow(t *testing.T, spec march.MachineSpec) []float64 {
	t.Helper()
	cfg := counters.CollectConfigFor(spec)
	cfg.SectionLen = 2000
	col, err := counters.CollectBenchmark(workload.SuiteScaled(0.02)[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if col.Data.Len() == 0 {
		t.Fatal("no sections collected")
	}
	return col.Data.Row(0)
}

// corrupt returns a copy of row (and its CPI) with one counter flipped so
// that exactly the given relation is violated: identities get a bumped
// left column, upper bounds get their left side inflated past the right,
// and bounds with a constant left side get the right side pulled below
// it. The choice is derived from the relation spec itself, so a new
// catalog entry is automatically exercised.
func corrupt(t *testing.T, rel counters.RelationSpec, cols []string, row []float64, cpi float64) ([]float64, float64) {
	t.Helper()
	out := append([]float64(nil), row...)
	idx := make(map[string]int, len(cols))
	for i, n := range cols {
		idx[n] = i
	}
	get := func(col string) float64 {
		if i := idx[col]; i == 0 {
			return cpi
		} else {
			return out[i]
		}
	}
	set := func(col string, v float64) {
		if i := idx[col]; i == 0 {
			cpi = v
		} else {
			out[i] = v
		}
	}
	evalExpr := func(e counters.LinearExpr) float64 {
		v := e.Const
		for _, term := range e.Terms {
			v += term.Coef * get(term.Col)
		}
		return v
	}
	lv, rv := evalExpr(rel.Left), evalExpr(rel.Right)
	switch {
	case rel.Kind == counters.RelIdentity:
		tgt := rel.Left.Terms[0]
		set(tgt.Col, get(tgt.Col)+0.5/tgt.Coef)
	case len(rel.Left.Terms) > 0:
		// Inflate the first left-hand column until the bound breaks by 1.
		tgt := rel.Left.Terms[0]
		set(tgt.Col, get(tgt.Col)+(rv-lv+1)/tgt.Coef)
	default:
		// Constant left side (non-negativity, CPI floor): pull the first
		// right-hand column down until the right side sits 1 below it.
		tgt := rel.Right.Terms[0]
		set(tgt.Col, get(tgt.Col)+(lv-1-rv)/tgt.Coef)
	}
	return out, cpi
}

// TestTargetedCorruptionCaught iterates the assembled catalog — not a
// hand-kept list — and checks that flipping one counter participating in
// each relation drives that relation (and the session) to refuted within
// three windows.
func TestTargetedCorruptionCaught(t *testing.T) {
	cols := tableICols()
	for _, machine := range []string{"core2", "netburst", "atom"} {
		spec, ok := march.Lookup(machine)
		if !ok {
			t.Fatalf("unknown preset %q", machine)
		}
		row := cleanRow(t, spec)
		baseline := newTableIChecker(t, machine)
		feedRows(baseline, [][]float64{row, row}, 1)
		if v := baseline.Verdict(); v != Consistent {
			t.Fatalf("%s: baseline row is not clean: %q\n%s", machine, v, reportViolations(baseline))
		}
		for _, rel := range Catalog(cols, 0, &spec) {
			bad, badCPI := corrupt(t, rel, cols, row, row[0])
			c := newTableIChecker(t, machine)
			windows := 0
			refutedAt := -1
			for w := 0; w < 3; w++ {
				c.Observe(bad, badCPI, true)
				for _, tr := range c.EndWindow() {
					if tr.Relation == rel.Name && tr.Verdict == Refuted {
						refutedAt = w + 1
					}
				}
				windows++
			}
			if refutedAt < 0 {
				t.Fatalf("%s: corruption of %q (%s) not refuted within %d windows",
					machine, rel.Name, rel.String(), windows)
			}
			if c.Verdict() != Refuted {
				t.Fatalf("%s: session verdict %q after refuting %q", machine, c.Verdict(), rel.Name)
			}
			var found bool
			for _, rr := range c.Report().Relations {
				if rr.Name == rel.Name {
					found = true
					if rr.Verdict != Refuted || rr.Violations == 0 || rr.MaxDeviation <= 0 {
						t.Fatalf("%s: report for %q inconsistent: %+v", machine, rel.Name, rr)
					}
				}
			}
			if !found {
				t.Fatalf("%s: relation %q missing from report", machine, rel.Name)
			}
		}
	}
}

// TestVerdictLifecycle: a single violated window makes a relation
// suspect, the configured streak refutes it, and refuted is sticky even
// after the stream goes clean again.
func TestVerdictLifecycle(t *testing.T) {
	row := cleanRow(t, march.Core2())
	cols := tableICols()
	rel := counters.Relations()[0] // inst-mix
	bad, badCPI := corrupt(t, rel, cols, row, row[0])

	c := newTableIChecker(t, "core2")
	c.Observe(bad, badCPI, true)
	trans := c.EndWindow()
	if len(trans) != 1 || trans[0].Verdict != Suspect || trans[0].Relation != rel.Name {
		t.Fatalf("first violated window transitions = %+v, want one suspect for %q", trans, rel.Name)
	}
	if v := c.Verdict(); v != Suspect {
		t.Fatalf("verdict after one violated window = %q", v)
	}
	// A clean window in between resets the streak: still suspect.
	c.Observe(row, row[0], true)
	if trans := c.EndWindow(); len(trans) != 0 {
		t.Fatalf("clean window caused transitions %+v", trans)
	}
	c.Observe(bad, badCPI, true)
	c.EndWindow()
	if v := c.Verdict(); v != Suspect {
		t.Fatalf("verdict after broken streak = %q, want suspect", v)
	}
	c.Observe(bad, badCPI, true)
	trans = c.EndWindow()
	if len(trans) != 1 || trans[0].Verdict != Refuted {
		t.Fatalf("second consecutive violated window transitions = %+v, want refuted", trans)
	}
	// Sticky: clean windows cannot un-refute.
	for i := 0; i < 3; i++ {
		c.Observe(row, row[0], true)
		c.EndWindow()
	}
	if v := c.Verdict(); v != Refuted {
		t.Fatalf("refuted verdict decayed to %q", v)
	}
	sum := c.Summary()
	if sum.RefutedRelations != 1 {
		t.Fatalf("summary reports %d refuted relations, want 1", sum.RefutedRelations)
	}
}

// TestCPIRelationsSkipWithoutObserved: prediction-only samples (no
// observed CPI) must not be counted against CPI relations.
func TestCPIRelationsSkipWithoutObserved(t *testing.T) {
	row := cleanRow(t, march.Core2())
	c := newTableIChecker(t, "core2")
	c.Observe(row, 0, false)
	c.EndWindow()
	for _, rr := range c.Report().Relations {
		usesCPI := false
		for _, col := range mustRelation(t, c, rr.Name).Columns() {
			if col == "CPI" {
				usesCPI = true
			}
		}
		if usesCPI && rr.Checked != 0 {
			t.Fatalf("CPI relation %q checked %d samples without observed CPI", rr.Name, rr.Checked)
		}
		if !usesCPI && rr.Checked != 1 {
			t.Fatalf("relation %q checked %d samples, want 1", rr.Name, rr.Checked)
		}
	}
}

func mustRelation(t *testing.T, c *Checker, name string) counters.RelationSpec {
	t.Helper()
	for _, r := range c.Relations() {
		if r.Name == name {
			return r
		}
	}
	t.Fatalf("relation %q not in catalog", name)
	return counters.RelationSpec{}
}

// TestStateRoundTrip: snapshot → JSON → restore reproduces the checker
// byte-identically, including mid-lifecycle verdicts and a half-full
// open window.
func TestStateRoundTrip(t *testing.T) {
	row := cleanRow(t, march.Core2())
	cols := tableICols()
	bad, badCPI := corrupt(t, counters.Relations()[0], cols, row, row[0])

	c := newTableIChecker(t, "core2")
	feedRows(c, [][]float64{row, row}, 2)
	c.Observe(bad, badCPI, true)
	c.EndWindow()
	// Snapshot mid-window: the open window already holds a violation,
	// and it must survive the round trip to close the same way.
	c.Observe(row, row[0], true)
	c.Observe(bad, badCPI, true)
	if st := c.State(); st.WindowSamples != 2 || st.Relations[0].WindowDeviation <= 0 {
		t.Fatalf("fixture: open window %d samples, deviation %v; want 2 and a violation",
			st.WindowSamples, st.Relations[0].WindowDeviation)
	}

	blob, err := c.State().MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadJSON(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("re-reading own snapshot: %v", err)
	}
	restored := newTableIChecker(t, "core2")
	if err := restored.RestoreState(decoded); err != nil {
		t.Fatalf("restore: %v", err)
	}
	blob2, err := restored.State().MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("state round-trip not byte-identical:\n%s\n%s", blob, blob2)
	}

	// Continuation equivalence: same future input, same future state.
	// Closing the restored open window refutes, as it does the original.
	for _, k := range []*Checker{c, restored} {
		k.Observe(row, row[0], true)
		if trans := k.EndWindow(); len(trans) != 1 || trans[0].Verdict != Refuted {
			t.Fatalf("closing the window open at the snapshot: transitions %+v, want one refuted", trans)
		}
		if trans := k.EndWindow(); trans != nil {
			t.Fatalf("closing an empty window: transitions %+v, want none", trans)
		}
		k.Observe(bad, badCPI, true)
		k.EndWindow()
	}
	if c.Windows() != 4 {
		t.Fatalf("%d closed windows, want 4 (an empty window does not count)", c.Windows())
	}
	b1, _ := c.State().MarshalBytes()
	b2, _ := restored.State().MarshalBytes()
	if !bytes.Equal(b1, b2) {
		t.Fatal("restored checker diverged from original on identical input")
	}
}

// TestRestoreRejectsMismatch: snapshots from a different machine or
// catalog shape are refused rather than silently misapplied.
func TestRestoreRejectsMismatch(t *testing.T) {
	c := newTableIChecker(t, "core2")
	st := c.State()

	other := newTableIChecker(t, "atom")
	if err := other.RestoreState(st); err == nil {
		t.Fatal("restore accepted a snapshot from another machine")
	}

	truncated := st
	truncated.Relations = st.Relations[:len(st.Relations)-1]
	if err := c.RestoreState(truncated); err == nil {
		t.Fatal("restore accepted a truncated relation list")
	}

	renamed := st
	renamed.Relations = append([]RelationState(nil), st.Relations...)
	renamed.Relations[0].Name = "no-such-relation"
	if err := c.RestoreState(renamed); err == nil {
		t.Fatal("restore accepted a renamed relation")
	}

	future := st
	future.SchemaVersion = StateVersion + 1
	if err := c.RestoreState(future); err == nil {
		t.Fatal("restore accepted a future schema version")
	}
}

// TestReadJSONStrict: the snapshot decoder rejects unknown fields,
// trailing documents and future versions.
func TestReadJSONStrict(t *testing.T) {
	c := newTableIChecker(t, "core2")
	blob, err := c.State().MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(bytes.NewReader(blob)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for name, data := range map[string]string{
		"unknown-field":  `{"schema_version":1,"samples":0,"windows":0,"relations":[],"extra":1}`,
		"future-version": `{"schema_version":99,"samples":0,"windows":0,"relations":[]}`,
		"trailing":       `{"schema_version":1,"samples":0,"windows":0,"relations":[]}{}`,
		"bad-verdict":    `{"schema_version":1,"samples":1,"windows":1,"relations":[{"name":"x","checked":1,"violations":1,"violated_windows":1,"streak":1,"max_deviation":1,"verdict":"maybe"}]}`,
		"not-json":       `nope`,
	} {
		if _, err := ReadJSON(strings.NewReader(data)); err == nil {
			t.Fatalf("%s: ReadJSON accepted %q", name, data)
		}
	}
}

// TestDisabledChecker: a disabled checker observes nothing, reports
// consistent, and round-trips an empty state.
func TestDisabledChecker(t *testing.T) {
	c := NewChecker(Config{Disabled: true}, tableICols(), 0, "core2")
	if c.Enabled() {
		t.Fatal("disabled checker reports enabled")
	}
	c.Observe(make([]float64, 21), 1, true)
	if trans := c.EndWindow(); trans != nil {
		t.Fatalf("disabled checker emitted transitions %+v", trans)
	}
	if v := c.Verdict(); v != Consistent {
		t.Fatalf("disabled checker verdict %q", v)
	}
	if err := c.RestoreState(c.State()); err != nil {
		t.Fatalf("disabled checker state round-trip: %v", err)
	}
}
