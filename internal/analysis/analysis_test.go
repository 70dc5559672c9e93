package analysis

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/mtree"
)

// perfData builds a CPI-like dataset with two classes split on "L2M":
//
//	L2M <= 0.01 : CPI = 0.5 + 10*BrMisPr
//	L2M >  0.01 : CPI = 0.8 + 150*L2M
func perfData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L2M"}, {Name: "BrMisPr"},
	}, 0)
	for i := 0; i < n; i++ {
		var l2 float64
		if i%2 == 0 {
			l2 = rng.Float64() * 0.008
		} else {
			l2 = 0.012 + rng.Float64()*0.02
		}
		br := rng.Float64() * 0.02
		var cpi float64
		if l2 <= 0.01 {
			cpi = 0.5 + 10*br
		} else {
			cpi = 0.8 + 150*l2
		}
		d.MustAppend(dataset.Instance{cpi + 0.005*rng.NormFloat64(), l2, br})
	}
	return d
}

func buildTree(t *testing.T, d *dataset.Dataset) *mtree.Tree {
	t.Helper()
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 100
	cfg.Smooth = false
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestAnalyzeSectionContributions(t *testing.T) {
	d := perfData(2000, 1)
	tree := buildTree(t, d)
	// A high-L2M section.
	row := dataset.Instance{0, 0.02, 0.01}
	rep := AnalyzeSection(tree, row)
	if rep.LeafID == 0 {
		t.Fatal("no leaf assigned")
	}
	// The decomposition must be exact: baseline + contributions = CPI.
	sum := rep.Baseline
	for _, c := range rep.Contributions {
		sum += c.Cycles
	}
	if math.Abs(sum-rep.PredictedCPI) > 1e-9 {
		t.Errorf("decomposition sums to %v, predicted %v", sum, rep.PredictedCPI)
	}
	// L2M should dominate this section's contributions.
	if len(rep.Contributions) == 0 {
		t.Fatal("no contributions")
	}
	if rep.Contributions[0].Name != "L2M" {
		t.Errorf("top contribution %q, want L2M", rep.Contributions[0].Name)
	}
	// Fraction arithmetic (the paper's Eq. 4): coef*rate/CPI.
	top := rep.Contributions[0]
	if math.Abs(top.Fraction-top.Coef*top.Rate/rep.PredictedCPI) > 1e-12 {
		t.Error("fraction != coef*rate/CPI")
	}
	// With coef ~150 and rate 0.02, the L2M share should be large.
	if top.Fraction < 0.5 {
		t.Errorf("L2M share %.2f, want > 0.5", top.Fraction)
	}
}

func TestAnalyzeSectionPathDirections(t *testing.T) {
	d := perfData(2000, 2)
	tree := buildTree(t, d)
	_, path := tree.Classify(dataset.Instance{0, 0.02, 0.01})
	foundHigh := false
	for _, s := range path {
		if s.Name == "L2M" && s.Above {
			foundHigh = true
		}
	}
	if !foundHigh {
		t.Error("high-L2M section not routed through L2M high side")
	}
}

func TestAnalyzeWorkloadRanking(t *testing.T) {
	d := perfData(2000, 3)
	tree := buildTree(t, d)
	// Analyze only high-L2M rows: L2M must rank first.
	high := d.EmptyLike()
	for i := 0; i < d.Len(); i++ {
		if d.Value(i, 1) > 0.01 {
			high.MustAppend(d.Row(i).Clone())
		}
	}
	rep := AnalyzeWorkload(tree, high)
	if rep.N != high.Len() {
		t.Errorf("analyzed %d, want %d", rep.N, high.Len())
	}
	if len(rep.Issues) == 0 {
		t.Fatal("no issues ranked")
	}
	if rep.Issues[0].Name != "L2M" {
		t.Errorf("top issue %q, want L2M", rep.Issues[0].Name)
	}
	var total float64
	for _, f := range rep.LeafShare {
		total += f
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("leaf shares sum to %v", total)
	}
	if !strings.Contains(rep.Render(), "L2M") {
		t.Error("render missing top issue")
	}
}

func TestSplitImpactsMeanDifference(t *testing.T) {
	d := perfData(3000, 4)
	tree := buildTree(t, d)
	impacts := SplitImpacts(tree, d)
	if len(impacts) == 0 {
		t.Fatal("no splits analyzed")
	}
	var l2 *SplitImpact
	for i := range impacts {
		if impacts[i].Name == "L2M" && impacts[i].Depth == 0 {
			l2 = &impacts[i]
		}
	}
	if l2 == nil {
		t.Fatal("root L2M split not reported")
	}
	if l2.LowN == 0 || l2.HighN == 0 {
		t.Error("split sides empty")
	}
	// High side mean CPI ~ 0.8+150*0.022 ≈ 4.1; low side ~0.6.
	if l2.MeanDifference < 1 {
		t.Errorf("mean difference %v too small", l2.MeanDifference)
	}
	if l2.FractionOfHigh <= 0 || l2.FractionOfHigh > 1 {
		t.Errorf("fraction of high %v out of range", l2.FractionOfHigh)
	}
	if l2.RSquared < 0.5 {
		t.Errorf("R² %v too small for the dominant split", l2.RSquared)
	}
	if !strings.Contains(RenderSplitImpacts(impacts), "L2M") {
		t.Error("render missing split")
	}
}

func TestSingleVarR2PerfectLinear(t *testing.T) {
	d := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	for i := 0; i < 50; i++ {
		x := float64(i)
		d.MustAppend(dataset.Instance{3*x + 2, x})
	}
	if got := singleVarR2(d, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("R² = %v, want 1", got)
	}
}

func TestSingleVarR2Degenerate(t *testing.T) {
	d := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	d.MustAppend(dataset.Instance{1, 1})
	if got := singleVarR2(d, 1); got != 0 {
		t.Errorf("R² of single point = %v", got)
	}
}

func TestCensus(t *testing.T) {
	d := perfData(2000, 5)
	tree := buildTree(t, d)
	// Build a fake labeled collection: first half "benchA" (low L2M rows
	// interleaved), second half "benchB".
	col := &counters.Collection{Data: d}
	for i := 0; i < d.Len(); i++ {
		name := "benchA"
		if d.Value(i, 1) > 0.01 {
			name = "benchB"
		}
		col.Labels = append(col.Labels, counters.SectionLabel{Benchmark: name, Section: i})
	}
	c := Census(tree, col)
	if len(c.Benchmarks) != 2 {
		t.Fatalf("census has %d benchmarks", len(c.Benchmarks))
	}
	for name, shares := range c.Benchmarks {
		total := 0.0
		for _, f := range shares {
			total += f
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s shares sum to %v", name, total)
		}
	}
	// benchB (high L2M) must be concentrated in one class.
	leaf, share := c.DominantLeaf("benchB")
	if share < 0.9 {
		t.Errorf("benchB dominant share %.2f in LM%d, want > 0.9", share, leaf)
	}
	if got := c.Share("benchB", leaf); got != share {
		t.Errorf("Share lookup %v != dominant %v", got, share)
	}
	if _, s := c.DominantLeaf("missing"); s != 0 {
		t.Error("unknown benchmark has nonzero dominant share")
	}
	if !strings.Contains(c.Render(), "benchA") {
		t.Error("census render missing benchmark")
	}
}
