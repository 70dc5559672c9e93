package mtree

import (
	"repro/internal/dataset"
	"repro/internal/model"
)

// Tree implements model.Model. The analysis layer and the serving layer
// both consume trees through that interface; the assertion keeps the
// conformance from silently rotting.
var _ model.Model = (*Tree)(nil)

// Contributions decomposes the leaf model's (unsmoothed) prediction for an
// instance into per-event CPI shares, largest first — the paper's Eq. 4
// arithmetic (e.g. 6.69*L1IM/CPI ≈ 20%). The unsmoothed leaf prediction is
// used so that intercept + sum(Cycles) reproduces it exactly.
func (t *Tree) Contributions(row dataset.Instance) []model.Contribution {
	lm := t.LeafFor(row).Model
	pred := lm.Predict(row)
	out := make([]model.Contribution, 0, len(lm.Coefs))
	for i, a := range lm.Attrs {
		if coef := lm.Coefs[i]; coef != 0 {
			out = append(out, contribution(a, t.AttrName(a), coef, row[a], pred))
		}
	}
	model.SortContributions(out)
	return out
}

// TopContribution implements model.Model: the first element of
// Contributions, found in one walk over the leaf terms.
func (t *Tree) TopContribution(row dataset.Instance) (model.Contribution, bool) {
	lm := t.LeafFor(row).Model
	best := -1
	var bestCyc float64
	for i, a := range lm.Attrs {
		coef := lm.Coefs[i]
		if coef == 0 {
			continue
		}
		if cyc := coef * row[a]; best < 0 || cyc > bestCyc {
			best, bestCyc = i, cyc
		}
	}
	if best < 0 {
		return model.Contribution{}, false
	}
	a := lm.Attrs[best]
	return contribution(a, t.AttrName(a), lm.Coefs[best], row[a], lm.Predict(row)), true
}

// contribution is the Eq. 4 share of one leaf-model term, with its
// fraction taken against the unsmoothed leaf prediction pred.
func contribution(a int, name string, coef, rate, pred float64) model.Contribution {
	cyc := coef * rate
	var frac float64
	if pred != 0 {
		frac = cyc / pred
	}
	return model.Contribution{Attr: a, Name: name, Coef: coef, Rate: rate, Cycles: cyc, Fraction: frac}
}

// Describe implements model.Model.
func (t *Tree) Describe() model.Description {
	return model.Description{
		Kind:      "m5-model-tree",
		Target:    t.TargetName,
		AttrNames: t.AttrNames,
		TrainN:    t.TrainN,
		NumLeaves: t.NumLeaves(),
		Trees:     1,
		Machine:   t.Machine,
	}
}
