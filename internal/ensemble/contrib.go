package ensemble

import (
	"cmp"
	"slices"

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
// independent of scheduling. Each member is walked to its leaf once, and
// the returned slice is the only allocation.
func (b *Bagger) Contributions(row dataset.Instance) []model.Contribution {
	if len(b.Trees) == 0 {
		return nil
	}
	// One entry per event any member's leaf uses: at most one per column.
	out := make([]model.Contribution, 0, len(row))
	meanPred := 0.0
	for _, t := range b.Trees {
		lm := t.LeafFor(row).Model
		meanPred += lm.Predict(row)
		for i, a := range lm.Attrs {
			coef := lm.Coefs[i]
			if coef == 0 {
				continue
			}
			j := 0
			for j < len(out) && out[j].Attr != a {
				j++
			}
			if j == len(out) {
				out = append(out, model.Contribution{Attr: a, Name: t.AttrName(a), Rate: row[a]})
			}
			out[j].Coef += coef
			out[j].Cycles += coef * row[a]
		}
	}
	n := float64(len(b.Trees))
	meanPred /= n

	slices.SortFunc(out, func(x, y model.Contribution) int { return cmp.Compare(x.Attr, y.Attr) })
	for i := range out {
		c := &out[i]
		c.Coef /= n
		c.Cycles /= n
		if meanPred != 0 {
			c.Fraction = c.Cycles / meanPred
		}
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
