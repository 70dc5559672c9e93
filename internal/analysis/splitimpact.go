package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/mtree"
)

// SplitImpact quantifies the effect of a split variable that controls
// class membership without necessarily appearing in the leaf models —
// Section V.A.2 of the paper. Two estimators are provided, matching the
// paper's discussion:
//
//   - MeanDifference: the average CPI of the high side minus the average
//     CPI of the low side of the split (the paper's LdBlSta example:
//     0.84 - mean(0.57, 0.51) ≈ 0.30, i.e. ~35% of the high side's CPI);
//   - RSquared: the R² of a single-variable regression of CPI on the
//     split variable over the instances reaching the split node — "the
//     regression R² can be used as an indication of the contribution of
//     the split variable to the overall performance".
type SplitImpact struct {
	// Attr and Name identify the split variable; Threshold is its split
	// point.
	Attr      int
	Name      string
	Threshold float64
	// Depth is the split node's depth (root = 0).
	Depth int
	// LowMeanCPI and HighMeanCPI are the mean CPI of instances routed to
	// each side.
	LowMeanCPI, HighMeanCPI float64
	// LowN and HighN are the instance counts per side.
	LowN, HighN int
	// MeanDifference is HighMeanCPI - LowMeanCPI.
	MeanDifference float64
	// FractionOfHigh is MeanDifference / HighMeanCPI — the paper's "~35%
	// of the CPI" phrasing.
	FractionOfHigh float64
	// RSquared is the single-variable regression R² at the node.
	RSquared float64
}

// SplitImpacts walks every interior node of the tree, routes the dataset
// down, and computes both impact estimators per split. The result is
// sorted by descending mean difference.
func SplitImpacts(t *mtree.Tree, d *dataset.Dataset) []SplitImpact {
	var out []SplitImpact
	var walk func(n *mtree.Node, sub *dataset.Dataset, depth int)
	walk = func(n *mtree.Node, sub *dataset.Dataset, depth int) {
		if n == nil || n.IsLeaf() || sub.Len() == 0 {
			return
		}
		left, right := sub.Split(n.SplitAttr, n.Threshold)
		si := SplitImpact{
			Attr:      n.SplitAttr,
			Name:      t.AttrName(n.SplitAttr),
			Threshold: n.Threshold,
			Depth:     depth,
			LowN:      left.Len(),
			HighN:     right.Len(),
		}
		if left.Len() > 0 {
			si.LowMeanCPI = left.TargetMean()
		}
		if right.Len() > 0 {
			si.HighMeanCPI = right.TargetMean()
		}
		si.MeanDifference = si.HighMeanCPI - si.LowMeanCPI
		if si.HighMeanCPI != 0 {
			si.FractionOfHigh = si.MeanDifference / si.HighMeanCPI
		}
		si.RSquared = singleVarR2(sub, n.SplitAttr)
		out = append(out, si)
		walk(n.Left, left, depth+1)
		walk(n.Right, right, depth+1)
	}
	walk(t.Root, d, 0)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].MeanDifference > out[j].MeanDifference
	})
	return out
}

// singleVarR2 fits CPI = a + b*x by least squares over the subset and
// returns the coefficient of determination.
func singleVarR2(d *dataset.Dataset, attr int) float64 {
	n := d.Len()
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		x, y := d.Value(i, attr), d.Target(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	nf := float64(n)
	covXY := sxy - sx*sy/nf
	varX := sxx - sx*sx/nf
	varY := syy - sy*sy/nf
	if varX <= 0 || varY <= 0 {
		return 0
	}
	r := covXY / math.Sqrt(varX*varY)
	return r * r
}

// RenderSplitImpacts formats the impact table.
func RenderSplitImpacts(impacts []SplitImpact) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %6s %9s %9s %9s %8s %7s\n",
		"split var", "threshold", "depth", "lowCPI", "highCPI", "diff", "of-high", "R2")
	for _, si := range impacts {
		fmt.Fprintf(&b, "%-12s %10.3g %6d %9.3f %9.3f %9.3f %7.1f%% %7.3f\n",
			si.Name, si.Threshold, si.Depth, si.LowMeanCPI, si.HighMeanCPI,
			si.MeanDifference, 100*si.FractionOfHigh, si.RSquared)
	}
	return b.String()
}
