package ensemble

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
)

// CompiledBagger is a bagged ensemble whose member trees have been
// flattened into contiguous arrays (see mtree.CompiledTree). Single
// predictions average the members in tree order exactly like Bagger, so
// results are bit-identical; the batch kernel additionally runs
// tree-major — one member across the whole batch before the next — so
// each member's flat arrays stay hot in cache instead of being evicted
// between rows. The per-row accumulation order is unchanged (member 0,
// then 1, ...), keeping batch results bit-identical to per-row Predict.
type CompiledBagger struct {
	trees []*mtree.CompiledTree
}

var _ model.Model = (*CompiledBagger)(nil)
var _ model.BatchPredictor = (*CompiledBagger)(nil)

// CompileBagger flattens every member of a trained ensemble. It fails
// for a nil ensemble, one with no members, or one with a member that
// Tree.CompileModel rejects, naming that member's index.
func CompileBagger(b *Bagger) (*CompiledBagger, error) {
	if b == nil || len(b.Trees) == 0 {
		return nil, errors.New("ensemble: no members")
	}
	c := &CompiledBagger{trees: make([]*mtree.CompiledTree, len(b.Trees))}
	for i, t := range b.Trees {
		m, err := t.CompileModel()
		if err != nil {
			return nil, fmt.Errorf("ensemble: member %d: %w", i, err)
		}
		c.trees[i] = m.(*mtree.CompiledTree)
	}
	return c, nil
}

// CompileModel implements model.Compilable; an ensemble that does not
// compile yields CompileBagger's error, which the registry reports.
func (b *Bagger) CompileModel() (model.Model, error) {
	c, err := CompileBagger(b)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Predict averages the compiled members' (smoothed) predictions in tree
// order — the same reduction as Bagger.Predict, bit for bit.
func (c *CompiledBagger) Predict(row dataset.Instance) float64 {
	s := 0.0
	for _, t := range c.trees {
		s += t.Predict(row)
	}
	return s / float64(len(c.trees))
}

// PredictInto is the ensemble batch kernel: tree-major accumulation
// over the caller's buffer, then one division per row. Per-row
// arithmetic matches Predict exactly (members are added in the same
// order, the division is by the same count), so dst is bit-identical to
// calling Predict row by row.
func (c *CompiledBagger) PredictInto(dst []float64, rows []dataset.Instance) {
	dst = dst[:len(rows)]
	for i := range dst {
		dst[i] = 0
	}
	for _, t := range c.trees {
		t.AccumulateInto(dst, rows)
	}
	n := float64(len(c.trees))
	for i := range dst {
		dst[i] /= n
	}
}

// Contributions reports the member-averaged Eq. 4 decomposition with
// the same reduction as Bagger.Contributions (tree-order sums,
// attribute-sorted output), evaluated on the compiled members.
func (c *CompiledBagger) Contributions(row dataset.Instance) []model.Contribution {
	members := make([]contributor, len(c.trees))
	for i, t := range c.trees {
		members[i] = t
	}
	return memberContributions(members, row)
}

// TopContribution implements model.Model: the first element of
// Contributions, as for Bagger.
func (c *CompiledBagger) TopContribution(row dataset.Instance) (model.Contribution, bool) {
	return first(c.Contributions(row))
}

// NumLeaves sums the member leaf counts, matching Bagger.NumLeaves.
func (c *CompiledBagger) NumLeaves() int {
	s := 0
	for _, t := range c.trees {
		s += t.NumLeaves()
	}
	return s
}

// Describe matches Bagger.Describe field for field.
func (c *CompiledBagger) Describe() model.Description {
	td := c.trees[0].Describe()
	return model.Description{
		Kind: Kind, Trees: len(c.trees), NumLeaves: c.NumLeaves(),
		Target: td.Target, AttrNames: td.AttrNames, TrainN: td.TrainN, Machine: td.Machine,
	}
}
