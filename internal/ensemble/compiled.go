package ensemble

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
)

// CompiledBagger is a bagged ensemble's prediction kernel: its member
// trees flattened into contiguous arrays (see mtree.CompiledTree).
// Single predictions average the members in tree order exactly like
// Bagger, so results are bit-identical; the batch kernel additionally
// runs tree-major — one member across the whole batch before the next —
// so each member's flat arrays stay hot in cache instead of being
// evicted between rows. The per-row accumulation order is unchanged
// (member 0, then 1, ...), keeping batch results bit-identical to
// per-row Predict. Contributions answer from the source ensemble, which
// must not change after compiling.
type CompiledBagger struct {
	src   *Bagger
	desc  model.Description
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
	c := &CompiledBagger{src: b, trees: make([]*mtree.CompiledTree, len(b.Trees))}
	for i, t := range b.Trees {
		m, err := t.CompileModel()
		if err != nil {
			return nil, fmt.Errorf("ensemble: member %d: %w", i, err)
		}
		c.trees[i] = m.(*mtree.CompiledTree)
	}
	c.desc = b.Describe()
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

// Contributions answers from the source ensemble: the decomposition is
// not a hot path, and Bagger is the reference the kernel is held to.
func (c *CompiledBagger) Contributions(row dataset.Instance) []model.Contribution {
	return c.src.Contributions(row)
}

// TopContribution answers from the source ensemble, as Contributions
// does.
func (c *CompiledBagger) TopContribution(row dataset.Instance) (model.Contribution, bool) {
	return c.src.TopContribution(row)
}

// NumLeaves reports Bagger.NumLeaves, the member leaf total, as counted
// at compile time.
func (c *CompiledBagger) NumLeaves() int { return c.desc.NumLeaves }

// Describe returns the source ensemble's description, taken at compile
// time so the per-request schema lookup walks no member.
func (c *CompiledBagger) Describe() model.Description { return c.desc }
