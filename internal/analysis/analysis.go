// Package analysis implements the paper's performance-analysis layer on
// top of a trained model tree (Section IV.C and V.A of the paper). It
// answers the two questions of the problem formulation:
//
//   - the "what" question: which micro-architectural events limit a
//     workload's performance — read from the leaf model's terms and from
//     the high-side split variables on the path to the leaf; and
//   - the "how much" question: the expected gain from eliminating each
//     event — the fractional contribution coef*X/CPI of each leaf-model
//     term (the paper's Eq. 4 walk-through: 6.69*L1IM/CPI ≈ 20%), and the
//     subtree-mean difference for split variables that do not appear in
//     the linear model (the paper's LdBlSta example: ≈ 0.30 CPI, 35%).
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
)

// Contribution is one event's share of a section's predicted CPI. It is
// the shared model.Contribution type: the decomposition is computed by
// the tree itself (Tree.Contributions), and this package aggregates and
// renders it.
type Contribution = model.Contribution

// SectionReport analyzes one section (dataset row).
type SectionReport struct {
	// LeafID is the class (LM number) the section falls into.
	LeafID int
	// Path is the decision path from the root; steps with Above=true mark
	// events whose high counts define this class (implicit performance
	// limiters in the paper's terminology).
	Path []mtree.PathStep
	// PredictedCPI is the leaf model's estimate (unsmoothed, so that the
	// contribution arithmetic is exact for the displayed equation).
	PredictedCPI float64
	// Contributions lists the leaf-model terms, largest CPI share first.
	Contributions []Contribution
	// Baseline is the leaf model's intercept: the CPI not attributed to
	// any counted event.
	Baseline float64
}

// AnalyzeSection classifies a section and decomposes its predicted CPI
// into per-event contributions (the "what" and "how much" answers).
func AnalyzeSection(t *mtree.Tree, row dataset.Instance) SectionReport {
	leaf, path := t.Classify(row)
	return SectionReport{
		LeafID:        leaf.LeafID,
		Path:          path,
		PredictedCPI:  leaf.Model.Predict(row),
		Baseline:      leaf.Model.Intercept,
		Contributions: t.Contributions(row),
	}
}

// Issue is one ranked performance problem aggregated over a workload.
type Issue struct {
	Name string
	// MeanFraction is the mean fractional CPI contribution across the
	// workload's sections (sections where the event is absent count as
	// zero).
	MeanFraction float64
	// MeanCycles is the mean absolute CPI contribution.
	MeanCycles float64
	// Sections is the number of sections where the event contributes
	// positively.
	Sections int
}

// WorkloadReport aggregates section analyses over a whole workload run.
type WorkloadReport struct {
	// N is the number of sections analyzed.
	N int
	// MeanCPI is the mean predicted CPI.
	MeanCPI float64
	// LeafShare maps LeafID to the fraction of sections classified there.
	LeafShare map[int]float64
	// Issues ranks events by mean fractional contribution — the answer to
	// "what should be optimized first, and how much is it worth".
	Issues []Issue
}

// AnalyzeWorkload runs the per-section decomposition over every row of d
// and aggregates the ranked issue list: unsmoothed leaf predictions,
// per-leaf class membership and the mean Eq. 4 shares.
func AnalyzeWorkload(tree *mtree.Tree, d *dataset.Dataset) WorkloadReport {
	rep := WorkloadReport{LeafShare: map[int]float64{}}
	sums := map[string]*Issue{}
	for i := 0; i < d.Len(); i++ {
		sr := AnalyzeSection(tree, d.Row(i))
		rep.N++
		rep.MeanCPI += sr.PredictedCPI
		if sr.LeafID > 0 {
			rep.LeafShare[sr.LeafID]++
		}
		for _, c := range sr.Contributions {
			if c.Cycles <= 0 {
				continue
			}
			is := sums[c.Name]
			if is == nil {
				is = &Issue{Name: c.Name}
				sums[c.Name] = is
			}
			is.MeanFraction += c.Fraction
			is.MeanCycles += c.Cycles
			is.Sections++
		}
	}
	if rep.N > 0 {
		rep.MeanCPI /= float64(rep.N)
		for id := range rep.LeafShare {
			rep.LeafShare[id] /= float64(rep.N)
		}
	}
	for _, is := range sums {
		is.MeanFraction /= float64(rep.N)
		is.MeanCycles /= float64(rep.N)
		rep.Issues = append(rep.Issues, *is)
	}
	sort.SliceStable(rep.Issues, func(i, j int) bool {
		return rep.Issues[i].MeanFraction > rep.Issues[j].MeanFraction
	})
	return rep
}

// Render formats the workload report for terminal output.
func (r WorkloadReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sections analyzed: %d, mean predicted CPI %.3f\n", r.N, r.MeanCPI)
	type share struct {
		id int
		f  float64
	}
	shares := make([]share, 0, len(r.LeafShare))
	for id, f := range r.LeafShare {
		shares = append(shares, share{id, f})
	}
	// Tie-break equal shares by leaf ID so the rendering does not depend
	// on map iteration order.
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].f != shares[j].f {
			return shares[i].f > shares[j].f
		}
		return shares[i].id < shares[j].id
	})
	if len(shares) > 0 {
		b.WriteString("class membership:")
		for _, s := range shares {
			fmt.Fprintf(&b, " LM%d:%.1f%%", s.id, 100*s.f)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nranked performance issues (what / how much):\n")
	fmt.Fprintf(&b, "%-12s %14s %12s %10s\n", "event", "gain if fixed", "CPI cycles", "sections")
	for _, is := range r.Issues {
		fmt.Fprintf(&b, "%-12s %13.1f%% %12.4f %10d\n",
			is.Name, 100*is.MeanFraction, is.MeanCycles, is.Sections)
	}
	return b.String()
}
