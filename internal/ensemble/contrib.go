package ensemble

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/model"
)

// Bagger implements model.Model, so the serving registry and the analysis
// layer can hold trees and ensembles interchangeably.
var _ model.Model = (*Bagger)(nil)

// NumLeaves returns the total leaf count across the member trees — the
// number of (overlapping) performance classes the ensemble carries. See
// MeanLeaves for the per-member readability proxy.
func (b *Bagger) NumLeaves() int {
	s := 0
	for _, t := range b.Trees {
		s += t.NumLeaves()
	}
	return s
}

// Describe implements model.Model. Schema fields come from the first
// member; every member is trained on the same columns.
func (b *Bagger) Describe() model.Description {
	d := model.Description{Kind: "bagged-m5", Trees: len(b.Trees), NumLeaves: b.NumLeaves()}
	if len(b.Trees) > 0 {
		t := b.Trees[0]
		d.Target = t.TargetName
		d.AttrNames = t.AttrNames
		d.TrainN = t.TrainN
		d.Machine = t.Machine
	}
	return d
}

// Contributions averages the member trees' per-event decompositions: each
// member contributes its leaf-model terms, members whose leaf omits an
// event contribute zero for it, and fractions are taken against the mean
// unsmoothed leaf prediction — so intercepts aside, the shares decompose
// the ensemble's raw (pre-smoothing) estimate. Members are reduced in
// tree order and ties sorted by attribute index, keeping the output
// independent of scheduling.
func (b *Bagger) Contributions(row dataset.Instance) []model.Contribution {
	if len(b.Trees) == 0 {
		return nil
	}
	type acc struct {
		name   string
		coef   float64
		cycles float64
	}
	sums := map[int]*acc{}
	meanPred := 0.0
	for _, t := range b.Trees {
		leaf, _ := t.Classify(row)
		meanPred += leaf.Model.Predict(row)
		for _, c := range t.Contributions(row) {
			a := sums[c.Attr]
			if a == nil {
				a = &acc{name: c.Name}
				sums[c.Attr] = a
			}
			a.coef += c.Coef
			a.cycles += c.Cycles
		}
	}
	n := float64(len(b.Trees))
	meanPred /= n

	attrs := make([]int, 0, len(sums))
	for a := range sums {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	out := make([]model.Contribution, 0, len(attrs))
	for _, a := range attrs {
		s := sums[a]
		c := model.Contribution{
			Attr: a, Name: s.name,
			Coef: s.coef / n, Rate: row[a], Cycles: s.cycles / n,
		}
		if meanPred != 0 {
			c.Fraction = c.Cycles / meanPred
		}
		out = append(out, c)
	}
	model.SortContributions(out)
	return out
}

// TopContribution implements model.Model: the first element of
// Contributions (ensembles have no single-walk fast path).
func (b *Bagger) TopContribution(row dataset.Instance) (model.Contribution, bool) {
	cs := b.Contributions(row)
	if len(cs) == 0 {
		return model.Contribution{}, false
	}
	return cs[0], true
}
