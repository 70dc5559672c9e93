// Package model defines the prediction interface of a trained CPI
// model. It is the contract the serving layer (internal/serve), the
// stream monitors, the CLIs and the analysis code program against; the
// M5' tree (internal/mtree) and its compiled prediction kernel
// implement it.
//
// The package sits below the learners: it depends only on
// internal/dataset, and internal/mtree imports it to declare
// conformance.
package model

import (
	"slices"

	"repro/internal/dataset"
)

// Contribution is one event's share of a prediction: the paper's Eq. 4
// decomposition coef*X/CPI, the unit of the "how much" answer.
type Contribution struct {
	// Attr is the dataset column of the event.
	Attr int `json:"attr"`
	// Name is the event name, e.g. "L1IM".
	Name string `json:"name"`
	// Coef is the model coefficient (cycles per event per instruction).
	Coef float64 `json:"coef"`
	// Rate is the instance's per-instruction event rate.
	Rate float64 `json:"rate"`
	// Cycles is Coef*Rate, the event's CPI contribution.
	Cycles float64 `json:"cycles"`
	// Fraction is Cycles / predicted CPI — the potential relative gain
	// from eliminating the event.
	Fraction float64 `json:"fraction"`
}

// SortContributions orders shares largest CPI contribution first, the
// order Model.Contributions promises. The sort is stable: ties keep the
// order the terms were built in (coefficient order for a tree), so the
// pointer-walk and compiled decompositions agree element for element,
// and a tree's TopContribution — the first term with the largest
// Cycles — is the element this puts first.
func SortContributions(cs []Contribution) {
	slices.SortStableFunc(cs, func(x, y Contribution) int {
		switch {
		case x.Cycles > y.Cycles:
			return -1
		case y.Cycles > x.Cycles:
			return 1
		}
		return 0
	})
}

// Description summarizes a trained model for registries, reports and the
// GET /v1/models endpoint.
type Description struct {
	// Kind identifies the learner, e.g. "m5-model-tree" or "bagged-m5".
	Kind string `json:"kind"`
	// Target is the predicted column name (e.g. "CPI").
	Target string `json:"target"`
	// AttrNames is the full column schema the model was trained on,
	// including the target column; instances handed to Predict must be
	// this wide, with values positionally aligned.
	AttrNames []string `json:"attrs"`
	// TrainN is the number of training instances.
	TrainN int `json:"train_n"`
	// NumLeaves is the total number of leaves (performance classes); for
	// ensembles it is summed over the members.
	NumLeaves int `json:"num_leaves"`
	// Trees is the number of trees behind the model (1 for a single tree).
	Trees int `json:"trees"`
	// Machine names the simulated machine the training data was collected
	// on (an internal/march registry name, e.g. "core2"); empty when the
	// provenance was not recorded.
	Machine string `json:"machine,omitempty"`
}

// Model is a trained CPI predictor. *mtree.Tree and its compiled form
// *mtree.CompiledTree implement it.
type Model interface {
	// Predict returns the model's estimate of the target for one
	// full-width instance (smoothed, for models that smooth).
	Predict(row dataset.Instance) float64

	// Contributions decomposes the (unsmoothed) prediction into per-event
	// shares, largest CPI contribution first (SortContributions, so ties
	// keep the order the terms were built in). The sum of Cycles plus
	// the model baseline reproduces the decomposed prediction exactly.
	Contributions(row dataset.Instance) []Contribution

	// TopContribution returns Contributions(row)[0], the largest CPI
	// contribution, and false when that slice is empty. A tree finds it
	// in one leaf walk without building or sorting the slice,
	// which keeps per-sample stream scoring allocation-free. For a row
	// with a NaN rate the "largest first" order is undefined, and the
	// two may then name different events.
	TopContribution(row dataset.Instance) (Contribution, bool)

	// NumLeaves reports the number of leaves (performance classes).
	NumLeaves() int

	// Describe summarizes the model.
	Describe() Description
}
