// Package dataset provides the tabular data containers shared by every
// learner in this repository.
//
// A Dataset is a dense numeric table: rows are Instances (one per workload
// section in the performance-analysis application) and columns are
// Attributes. Exactly one column is designated the target (the dependent
// variable; CPI in the paper). All learners in internal/mtree,
// internal/regtree, internal/ann, internal/svm and internal/naive consume
// this representation.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Attribute describes one column of a Dataset.
type Attribute struct {
	// Name is the column identifier, e.g. "L2M" or "CPI".
	Name string
	// Description is an optional human-readable explanation, e.g.
	// "L2 misses per instruction".
	Description string
}

// Instance is one row: the attribute values followed (positionally) by the
// columns of its Dataset. Instances do not carry their own schema; they are
// meaningful only relative to the Dataset that owns them.
type Instance []float64

// Clone returns a deep copy of the instance.
func (in Instance) Clone() Instance {
	out := make(Instance, len(in))
	copy(out, in)
	return out
}

// Dataset is a dense numeric table with a designated target column.
type Dataset struct {
	attrs     []Attribute
	targetIdx int
	rows      []Instance
}

// New creates an empty Dataset with the given attribute schema and target
// column index. It returns an error if target is out of range or attribute
// names collide.
func New(attrs []Attribute, target int) (*Dataset, error) {
	if target < 0 || target >= len(attrs) {
		return nil, fmt.Errorf("dataset: target index %d out of range for %d attributes", target, len(attrs))
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a.Name == "" {
			return nil, errors.New("dataset: empty attribute name")
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
	}
	cp := make([]Attribute, len(attrs))
	copy(cp, attrs)
	return &Dataset{attrs: cp, targetIdx: target}, nil
}

// MustNew is New but panics on error; intended for statically-known schemas
// in tests and examples.
func MustNew(attrs []Attribute, target int) *Dataset {
	d, err := New(attrs, target)
	if err != nil {
		panic(err)
	}
	return d
}

// Append adds a row. The row length must match the schema.
func (d *Dataset) Append(row Instance) error {
	if len(row) != len(d.attrs) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(row), len(d.attrs))
	}
	for i, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: non-finite value %v in column %q", v, d.attrs[i].Name)
		}
	}
	d.rows = append(d.rows, row)
	return nil
}

// MustAppend is Append but panics on error.
func (d *Dataset) MustAppend(row Instance) {
	if err := d.Append(row); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.rows) }

// NumAttrs returns the number of columns including the target.
func (d *Dataset) NumAttrs() int { return len(d.attrs) }

// Attrs returns the attribute schema. The returned slice must not be
// modified.
func (d *Dataset) Attrs() []Attribute { return d.attrs }

// TargetIndex returns the index of the target column.
func (d *Dataset) TargetIndex() int { return d.targetIdx }

// TargetName returns the name of the target column.
func (d *Dataset) TargetName() string { return d.attrs[d.targetIdx].Name }

// Row returns row i. The returned slice aliases internal storage and must
// not be modified.
func (d *Dataset) Row(i int) Instance { return d.rows[i] }

// Target returns the target value of row i.
func (d *Dataset) Target(i int) float64 { return d.rows[i][d.targetIdx] }

// Value returns column a of row i.
func (d *Dataset) Value(i, a int) float64 { return d.rows[i][a] }

// AttrIndex returns the column index of the named attribute, or -1.
func (d *Dataset) AttrIndex(name string) int {
	for i, a := range d.attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// FeatureIndices returns the indices of all non-target columns in schema
// order.
func (d *Dataset) FeatureIndices() []int {
	out := make([]int, 0, len(d.attrs)-1)
	for i := range d.attrs {
		if i != d.targetIdx {
			out = append(out, i)
		}
	}
	return out
}

// EmptyLike returns a Dataset with the same schema but no rows.
func (d *Dataset) EmptyLike() *Dataset {
	return &Dataset{attrs: append([]Attribute(nil), d.attrs...), targetIdx: d.targetIdx}
}

// Subset returns a new Dataset holding the rows at the given indices. Row
// storage is shared with the parent; callers must treat rows as immutable.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := d.EmptyLike()
	out.rows = make([]Instance, 0, len(idx))
	for _, i := range idx {
		out.rows = append(out.rows, d.rows[i])
	}
	return out
}

// Split partitions the rows by a predicate on the attribute value: rows with
// value <= threshold in column attr go left, others right. Row storage is
// shared.
func (d *Dataset) Split(attr int, threshold float64) (left, right *Dataset) {
	left, right = d.EmptyLike(), d.EmptyLike()
	for _, r := range d.rows {
		if r[attr] <= threshold {
			left.rows = append(left.rows, r)
		} else {
			right.rows = append(right.rows, r)
		}
	}
	return left, right
}

// Fold describes one cross-validation fold as a pair of datasets.
type Fold struct {
	Train *Dataset
	Test  *Dataset
}

// KFold partitions the dataset into k folds after a seeded shuffle and
// returns the k (train, test) pairs. It returns an error when k is not in
// [2, Len()].
func (d *Dataset) KFold(k int, seed int64) ([]Fold, error) {
	n := d.Len()
	if k < 2 || k > n {
		return nil, fmt.Errorf("dataset: cannot make %d folds from %d rows", k, n)
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	folds := make([]Fold, k)
	// Assign row perm[i] to fold i%k, which balances fold sizes to within
	// one row.
	members := make([][]int, k)
	for i, p := range perm {
		members[i%k] = append(members[i%k], p)
	}
	for f := 0; f < k; f++ {
		test := d.Subset(members[f])
		train := d.EmptyLike()
		for g := 0; g < k; g++ {
			if g == f {
				continue
			}
			for _, i := range members[g] {
				train.rows = append(train.rows, d.rows[i])
			}
		}
		folds[f] = Fold{Train: train, Test: test}
	}
	return folds, nil
}

// TrainTestSplit returns a seeded random split with the given training
// fraction in (0, 1).
func (d *Dataset) TrainTestSplit(frac float64, seed int64) (train, test *Dataset, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("dataset: training fraction %v not in (0,1)", frac)
	}
	n := d.Len()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	cut := int(float64(n) * frac)
	if cut == 0 || cut == n {
		return nil, nil, fmt.Errorf("dataset: split of %d rows at fraction %v is degenerate", n, frac)
	}
	return d.Subset(perm[:cut]), d.Subset(perm[cut:]), nil
}

// TargetMean returns the mean of the target column (0 for an empty dataset).
func (d *Dataset) TargetMean() float64 {
	if len(d.rows) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range d.rows {
		s += r[d.targetIdx]
	}
	return s / float64(len(d.rows))
}

// TargetVariance returns the population variance of the target column.
func (d *Dataset) TargetVariance() float64 {
	return d.ColumnVariance(d.targetIdx)
}

// TargetStdDev returns the population standard deviation of the target.
func (d *Dataset) TargetStdDev() float64 {
	return math.Sqrt(d.TargetVariance())
}

// ColumnMean returns the mean of column a.
func (d *Dataset) ColumnMean(a int) float64 {
	if len(d.rows) == 0 {
		return 0
	}
	s := 0.0
	for _, r := range d.rows {
		s += r[a]
	}
	return s / float64(len(d.rows))
}

// ColumnVariance returns the population variance of column a, computed with
// a two-pass algorithm for numeric stability.
func (d *Dataset) ColumnVariance(a int) float64 {
	n := len(d.rows)
	if n == 0 {
		return 0
	}
	m := d.ColumnMean(a)
	s := 0.0
	for _, r := range d.rows {
		dv := r[a] - m
		s += dv * dv
	}
	return s / float64(n)
}

// ColumnMinMax returns the min and max of column a. For an empty dataset it
// returns (0, 0).
func (d *Dataset) ColumnMinMax(a int) (lo, hi float64) {
	if len(d.rows) == 0 {
		return 0, 0
	}
	lo, hi = d.rows[0][a], d.rows[0][a]
	for _, r := range d.rows[1:] {
		if r[a] < lo {
			lo = r[a]
		}
		if r[a] > hi {
			hi = r[a]
		}
	}
	return lo, hi
}

// Summary renders a short per-column summary table, useful in CLI output.
func (d *Dataset) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows x %d attributes (target %s)\n", d.Len(), d.NumAttrs(), d.TargetName())
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %12s\n", "attribute", "mean", "stddev", "min", "max")
	for i, a := range d.attrs {
		lo, hi := d.ColumnMinMax(i)
		fmt.Fprintf(&b, "%-14s %12.5g %12.5g %12.5g %12.5g\n",
			a.Name, d.ColumnMean(i), math.Sqrt(d.ColumnVariance(i)), lo, hi)
	}
	return b.String()
}

// Merge appends all rows of other (which must share the schema length) to d.
func (d *Dataset) Merge(other *Dataset) error {
	if other.NumAttrs() != d.NumAttrs() {
		return fmt.Errorf("dataset: schema mismatch (%d vs %d attributes)", other.NumAttrs(), d.NumAttrs())
	}
	d.rows = append(d.rows, other.rows...)
	return nil
}
