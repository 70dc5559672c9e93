package linreg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// makeLinear builds a dataset with y = b0 + sum bi*xi + noise.
func makeLinear(n int, coefs []float64, intercept, noise float64, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	attrs := []dataset.Attribute{{Name: "y"}}
	for i := range coefs {
		attrs = append(attrs, dataset.Attribute{Name: "x" + string(rune('A'+i))})
	}
	d := dataset.MustNew(attrs, 0)
	for i := 0; i < n; i++ {
		row := make(dataset.Instance, len(coefs)+1)
		y := intercept
		for j, c := range coefs {
			x := rng.NormFloat64()
			row[j+1] = x
			y += c * x
		}
		row[0] = y + noise*rng.NormFloat64()
		d.MustAppend(row)
	}
	return d
}

func TestFitRecoversExactCoefficients(t *testing.T) {
	want := []float64{2.5, -1.0, 0.25}
	d := makeLinear(500, want, 3.0, 0, 1)
	m, err := Fit(d, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3.0) > 1e-9 {
		t.Errorf("Intercept = %v, want 3.0", m.Intercept)
	}
	for i, c := range want {
		if math.Abs(m.Coefs[i]-c) > 1e-9 {
			t.Errorf("Coefs[%d] = %v, want %v", i, m.Coefs[i], c)
		}
	}
}

func TestFitNoisyData(t *testing.T) {
	want := []float64{4, -2}
	d := makeLinear(5000, want, 1.0, 0.1, 2)
	m, err := Fit(d, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range want {
		if math.Abs(m.Coefs[i]-c) > 0.05 {
			t.Errorf("Coefs[%d] = %v, want ~%v", i, m.Coefs[i], c)
		}
	}
}

func TestFitEmptyDataset(t *testing.T) {
	d := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	if _, err := Fit(d, []int{1}); err == nil {
		t.Error("fit on empty dataset accepted")
	}
	if _, err := FitGreedy(d, []int{1}); err == nil {
		t.Error("greedy fit on empty dataset accepted")
	}
}

func TestFitConstantColumn(t *testing.T) {
	d := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	for i := 0; i < 10; i++ {
		d.MustAppend(dataset.Instance{float64(i), 7}) // x constant
	}
	// QR fails on the collinear (intercept, constant) pair; the ridge
	// fallback must still return a finite model.
	m, err := Fit(d, []int{1})
	if err != nil {
		t.Fatalf("constant column: %v", err)
	}
	p := m.Predict(dataset.Instance{0, 7})
	if math.IsNaN(p) || math.IsInf(p, 0) {
		t.Errorf("prediction %v not finite", p)
	}
}

func TestFitGreedyDropsIrrelevant(t *testing.T) {
	// y depends on x1 only; x2 and x3 are pure noise.
	rng := rand.New(rand.NewSource(3))
	attrs := []dataset.Attribute{{Name: "y"}, {Name: "x1"}, {Name: "x2"}, {Name: "x3"}}
	d := dataset.MustNew(attrs, 0)
	for i := 0; i < 800; i++ {
		x1 := rng.NormFloat64()
		d.MustAppend(dataset.Instance{2 + 3*x1 + 0.05*rng.NormFloat64(), x1, rng.NormFloat64(), rng.NormFloat64()})
	}
	m, err := FitGreedy(d, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Uses(1) {
		t.Error("greedy dropped the true predictor x1")
	}
	if math.Abs(m.Coef(1)-3) > 0.1 {
		t.Errorf("x1 coefficient %v, want ~3", m.Coef(1))
	}
	kept := 0
	for _, c := range m.Coefs {
		if c != 0 {
			kept++
		}
	}
	if kept > 2 {
		t.Errorf("greedy kept %d terms, want at most 2 (x1 plus maybe one)", kept)
	}
}

func TestFitGreedyCollinearPair(t *testing.T) {
	// x2 = x1 exactly: the solver must not blow up and the model must
	// still predict well.
	rng := rand.New(rand.NewSource(4))
	attrs := []dataset.Attribute{{Name: "y"}, {Name: "x1"}, {Name: "x2"}}
	d := dataset.MustNew(attrs, 0)
	for i := 0; i < 400; i++ {
		x := rng.NormFloat64()
		d.MustAppend(dataset.Instance{5 * x, x, x})
	}
	m, err := FitGreedy(d, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(dataset.Instance{0, 1, 1})
	if math.Abs(pred-5) > 0.1 {
		t.Errorf("collinear prediction %v, want ~5", pred)
	}
}

// TestFitGreedyAllocsIndependentOfTrials: the greedy search reuses its
// scratch for every candidate subset, so one FitGreedy call allocates a
// constant number of buffers (plus at most one per candidate feature),
// however many subsets it solves and scores. With one real predictor
// among p, the search drops p-2 or more features, trying over p*p/4
// subsets; an allocation per subset would blow the bound at every p.
func TestFitGreedyAllocsIndependentOfTrials(t *testing.T) {
	for _, p := range []int{4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(p)))
		attrs := []dataset.Attribute{{Name: "y"}}
		features := make([]int, p)
		for j := range features {
			attrs = append(attrs, dataset.Attribute{Name: "x" + string(rune('A'+j))})
			features[j] = j + 1
		}
		d := dataset.MustNew(attrs, 0)
		for i := 0; i < 300; i++ {
			row := make(dataset.Instance, p+1)
			for j := 1; j <= p; j++ {
				row[j] = rng.NormFloat64()
			}
			row[0] = 2 + 3*row[1] + 0.05*rng.NormFloat64()
			d.MustAppend(row)
		}
		m, err := FitGreedy(d, features)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Attrs) > 2 {
			t.Fatalf("p=%d: greedy kept %d of %d features; the test needs a long search", p, len(m.Attrs), p)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := FitGreedy(d, features); err != nil {
				t.Fatal(err)
			}
		})
		if bound := float64(24 + p); allocs > bound {
			t.Errorf("p=%d: FitGreedy made %.0f allocations, want at most %.0f", p, allocs, bound)
		}
	}
}

func TestCorrectedErrorPenalizesParameters(t *testing.T) {
	d := makeLinear(50, []float64{1}, 0, 0.1, 5)
	m, err := Fit(d, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	mae := MeanAbsError(m, d)
	ce := CorrectedError(m, d)
	if ce <= mae {
		t.Errorf("CorrectedError %v should exceed MAE %v", ce, mae)
	}
}

func TestCorrectedErrorOverparameterized(t *testing.T) {
	d := makeLinear(3, []float64{1, 1, 1, 1}, 0, 0, 6)
	m := &Model{Intercept: 0, Attrs: []int{1, 2, 3, 4}, Coefs: []float64{1, 1, 1, 1}}
	ce := CorrectedError(m, d)
	if ce < 0 {
		t.Errorf("corrected error %v negative", ce)
	}
}

func TestFitConstant(t *testing.T) {
	d := makeLinear(20, []float64{1}, 2, 0, 7)
	m := FitConstant(d)
	if len(m.Coefs) != 0 {
		t.Error("constant model has coefficients")
	}
	if math.Abs(m.Intercept-d.TargetMean()) > 1e-12 {
		t.Errorf("constant model intercept %v != mean %v", m.Intercept, d.TargetMean())
	}
}

func TestModelString(t *testing.T) {
	m := &Model{Intercept: 0.52, Attrs: []int{7, 13}, Coefs: []float64{6.69, 139.91},
		Names: []string{"L1IM", "ItlbM"}}
	s := m.String()
	if !strings.Contains(s, "139.9*ItlbM") || !strings.Contains(s, "6.69*L1IM") {
		t.Errorf("String = %q", s)
	}
	// Largest coefficient should come first, like the paper's equations.
	if strings.Index(s, "ItlbM") > strings.Index(s, "L1IM") {
		t.Errorf("terms not sorted by magnitude: %q", s)
	}
}

func TestModelStringNegativeCoef(t *testing.T) {
	m := &Model{Intercept: 1, Attrs: []int{1}, Coefs: []float64{-2.5}, Names: []string{"x"}}
	if got := m.String(); !strings.Contains(got, "- 2.5*x") {
		t.Errorf("String = %q", got)
	}
}

func TestUsesAndCoef(t *testing.T) {
	m := &Model{Attrs: []int{3, 5}, Coefs: []float64{1.5, 0}}
	if !m.Uses(3) {
		t.Error("Uses(3) = false")
	}
	if m.Uses(5) {
		t.Error("Uses(5) = true for zero coefficient")
	}
	if m.Uses(4) {
		t.Error("Uses(4) = true for absent attr")
	}
	if m.Coef(3) != 1.5 || m.Coef(4) != 0 {
		t.Error("Coef lookup wrong")
	}
}

// Property: on exactly-linear data, the fitted model's training MAE is
// (near) zero for any random coefficients.
func TestFitPerfectDataProperty(t *testing.T) {
	f := func(seed int64, c1, c2 float64) bool {
		if math.IsNaN(c1) || math.IsInf(c1, 0) || math.Abs(c1) > 1e6 {
			c1 = 1
		}
		if math.IsNaN(c2) || math.IsInf(c2, 0) || math.Abs(c2) > 1e6 {
			c2 = -1
		}
		d := makeLinear(100, []float64{c1, c2}, 0.5, 0, seed)
		m, err := Fit(d, []int{1, 2})
		if err != nil {
			return false
		}
		scale := 1 + math.Abs(c1) + math.Abs(c2)
		return MeanAbsError(m, d) < 1e-6*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: greedy fitting never produces non-finite coefficients.
func TestGreedyFiniteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(n uint8) bool {
		rows := int(n)%200 + 20
		d := makeLinear(rows, []float64{1, 2, 3}, 0, 0.2, rng.Int63())
		m, err := FitGreedy(d, []int{1, 2, 3})
		if err != nil {
			return false
		}
		if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
			return false
		}
		for _, c := range m.Coefs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
