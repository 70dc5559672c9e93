package model_test

// Interface-conformance tests for the Model implementations, the M5'
// tree and its compiled form: the Description must agree with the
// training data and with NumLeaves, and Contributions must be ordered,
// schema-consistent, and arithmetically coherent.

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/proptest"
)

// fixtures trains one tree and serves it as built and compiled.
func fixtures(t *testing.T) (*dataset.Dataset, []model.Model) {
	t.Helper()
	d := proptest.PerfDataset(proptest.NewRand(proptest.CaseSeed("model-conformance", 0)), 400)
	tcfg := mtree.DefaultConfig()
	tcfg.MinLeaf = 40
	tree, err := mtree.Build(d, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, []model.Model{tree, mtree.Compile(tree)}
}

func TestDescribeConsistency(t *testing.T) {
	d, models := fixtures(t)
	for i, m := range models {
		desc := m.Describe()
		if desc.Kind != "m5-model-tree" {
			t.Errorf("model %d: Kind %q, want %q", i, desc.Kind, "m5-model-tree")
		}
		if desc.Trees != 1 {
			t.Errorf("%s: Trees %d, want 1", desc.Kind, desc.Trees)
		}
		if desc.Target != d.TargetName() {
			t.Errorf("%s: Target %q, want %q", desc.Kind, desc.Target, d.TargetName())
		}
		if len(desc.AttrNames) != d.NumAttrs() {
			t.Errorf("%s: %d attr names for %d columns", desc.Kind, len(desc.AttrNames), d.NumAttrs())
		}
		for j, a := range d.Attrs() {
			if desc.AttrNames[j] != a.Name {
				t.Errorf("%s: attr %d named %q, want %q", desc.Kind, j, desc.AttrNames[j], a.Name)
			}
		}
		if desc.TrainN != d.Len() {
			t.Errorf("%s: TrainN %d, want %d", desc.Kind, desc.TrainN, d.Len())
		}
		if desc.NumLeaves != m.NumLeaves() {
			t.Errorf("%s: Describe().NumLeaves %d != NumLeaves() %d", desc.Kind, desc.NumLeaves, m.NumLeaves())
		}
		if desc.NumLeaves < desc.Trees {
			t.Errorf("%s: %d leaves over %d trees", desc.Kind, desc.NumLeaves, desc.Trees)
		}
	}
}

func TestContributionsConsistency(t *testing.T) {
	d, models := fixtures(t)
	for _, m := range models {
		desc := m.Describe()
		for i := 0; i < 50; i++ {
			row := d.Row(i * 7 % d.Len())
			cs := m.Contributions(row)
			for j, c := range cs {
				if c.Attr < 0 || c.Attr >= len(desc.AttrNames) {
					t.Fatalf("%s: contribution attr %d outside schema", desc.Kind, c.Attr)
				}
				if c.Name != desc.AttrNames[c.Attr] {
					t.Fatalf("%s: contribution named %q for attr %d (%q)",
						desc.Kind, c.Name, c.Attr, desc.AttrNames[c.Attr])
				}
				if c.Rate != row[c.Attr] {
					t.Fatalf("%s: Rate %v != row[%d] = %v", desc.Kind, c.Rate, c.Attr, row[c.Attr])
				}
				if want := c.Coef * c.Rate; c.Cycles != want {
					t.Fatalf("%s: Cycles %v != Coef*Rate %v", desc.Kind, c.Cycles, want)
				}
				if j > 0 && cs[j-1].Cycles < c.Cycles {
					t.Fatalf("%s: contributions not sorted largest-first at %d", desc.Kind, j)
				}
			}
			// One contribution per distinct event at most.
			seen := map[int]bool{}
			for _, c := range cs {
				if seen[c.Attr] {
					t.Fatalf("%s: duplicate contribution for attr %d", desc.Kind, c.Attr)
				}
				seen[c.Attr] = true
			}
		}
	}
}

// handTree builds a tree whose leaves force TopContribution's edge
// cases: column 0 routes a row to a leaf with mixed-sign coefficients
// (value <= 0.5), one with all-zero coefficients (<= 1.5) or one whose
// terms are out of attribute order.
func handTree() *mtree.Tree {
	leaf := func(id int, lm *linreg.Model) *mtree.Node {
		return &mtree.Node{SplitAttr: -1, LeafID: id, N: 10, Model: lm}
	}
	// Every node carries a model, as in every tree Build returns and
	// ReadJSON accepts (CompileModel rejects one without); unsmoothed,
	// the interior ones are never evaluated.
	split := func(thr float64, l, r *mtree.Node) *mtree.Node {
		return &mtree.Node{SplitAttr: 0, SplitName: "A", Threshold: thr, Left: l, Right: r,
			Model: &linreg.Model{}}
	}
	return &mtree.Tree{
		TargetName: "CPI",
		AttrNames:  []string{"A", "B", "C", "D", "CPI"},
		Root: split(0.5,
			leaf(1, &linreg.Model{Intercept: 1, Attrs: []int{1, 2, 3}, Coefs: []float64{2, 1, -3}}),
			split(1.5,
				leaf(2, &linreg.Model{Intercept: 0.25, Attrs: []int{1, 2}, Coefs: []float64{0, 0}}),
				leaf(3, &linreg.Model{Intercept: -1, Attrs: []int{3, 1, 2}, Coefs: []float64{1, -1, 0.5}}))),
	}
}

// sameContribution compares two contributions bit for bit, so +0 and
// -0 are told apart.
func sameContribution(a, b model.Contribution) bool {
	bits := math.Float64bits
	return a.Attr == b.Attr && a.Name == b.Name &&
		bits(a.Coef) == bits(b.Coef) && bits(a.Rate) == bits(b.Rate) &&
		bits(a.Cycles) == bits(b.Cycles) && bits(a.Fraction) == bits(b.Fraction)
}

// TestTopContributionMatchesContributions: TopContribution is exactly
// Contributions(row)[0], or false when that slice is empty, for the
// pointer and compiled forms of a tree. Besides the
// trained fixtures it runs hand-built leaves over rates drawn from a
// small set, which forces exact Cycles ties (+0 against -0 too),
// all-zero coefficients, zero predictions and negative contributions.
func TestTopContributionMatchesContributions(t *testing.T) {
	d, trained := fixtures(t)
	hand := handTree()
	single := &mtree.Tree{
		TargetName: "CPI",
		AttrNames:  hand.AttrNames,
		Root: &mtree.Node{SplitAttr: -1, LeafID: 1, N: 10,
			Model: &linreg.Model{Attrs: []int{2, 1}, Coefs: []float64{1, 2}}},
	}
	models := trained
	for _, m := range []*mtree.Tree{hand, single} {
		cm, err := m.CompileModel()
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		models = append(models, m, cm)
	}

	rates := []float64{-2, -1, -0.5, math.Copysign(0, -1), 0, 0.5, 1, 2}
	r := proptest.NewRand(proptest.CaseSeed("top-contribution", 0))
	rows := []dataset.Instance{
		{0, 1, 2, 0, 0},   // B and C tie at 2 cycles, D is -0
		{0, 1, 0, 1, 0},   // 1 + 2 + 0 - 3: zero prediction
		{0, -1, -3, 1, 0}, // all negative, C and D tie at -3
		{1, 5, 5, 5, 0},   // all-zero coefficients
		{0, 0, 0, 0, 0},   // +0 against -0 ties only
	}
	for i := 0; i < 500; i++ {
		row := dataset.Instance{float64(r.Intn(3)), 0, 0, 0, 0}
		for j := 1; j <= 3; j++ {
			row[j] = rates[r.Intn(len(rates))]
		}
		rows = append(rows, row)
	}
	var checked, empty int
	for mi, m := range models {
		set := rows
		if mi < len(trained) { // the trained fixtures run on their dataset's rows
			set = nil
			for i := 0; i < d.Len(); i += 3 {
				set = append(set, d.Row(i))
			}
		}
		for _, row := range set {
			cs := m.Contributions(row)
			top, ok := m.TopContribution(row)
			if ok != (len(cs) > 0) {
				t.Fatalf("model %d (%T): TopContribution ok=%v for %d contributions, row %v",
					mi, m, ok, len(cs), row)
			}
			if !ok {
				empty++
				continue
			}
			if !sameContribution(top, cs[0]) {
				t.Fatalf("model %d (%T): TopContribution %+v, Contributions[0] %+v, row %v",
					mi, m, top, cs[0], row)
			}
			checked++
		}
	}
	if checked == 0 || empty == 0 {
		t.Errorf("checked %d tops and %d empty decompositions, want both exercised", checked, empty)
	}
}
