package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoColSchema() []Attribute {
	return []Attribute{{Name: "y"}, {Name: "x"}}
}

func TestNewValidatesSchema(t *testing.T) {
	if _, err := New(twoColSchema(), 2); err == nil {
		t.Error("target out of range accepted")
	}
	if _, err := New(twoColSchema(), -1); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := New([]Attribute{{Name: "a"}, {Name: "a"}}, 0); err == nil {
		t.Error("duplicate attribute names accepted")
	}
	if _, err := New([]Attribute{{Name: ""}}, 0); err == nil {
		t.Error("empty attribute name accepted")
	}
	if _, err := New(twoColSchema(), 0); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestAppendValidation(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	if err := d.Append(Instance{1}); err == nil {
		t.Error("short row accepted")
	}
	if err := d.Append(Instance{1, 2, 3}); err == nil {
		t.Error("long row accepted")
	}
	if err := d.Append(Instance{math.NaN(), 1}); err == nil {
		t.Error("NaN accepted")
	}
	if err := d.Append(Instance{math.Inf(1), 1}); err == nil {
		t.Error("Inf accepted")
	}
	if err := d.Append(Instance{1, 2}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d, want 1", d.Len())
	}
}

func TestStatistics(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	for _, y := range []float64{1, 2, 3, 4} {
		d.MustAppend(Instance{y, 2 * y})
	}
	if got := d.TargetMean(); got != 2.5 {
		t.Errorf("TargetMean = %v, want 2.5", got)
	}
	// Population variance of {1,2,3,4} is 1.25.
	if got := d.TargetVariance(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("TargetVariance = %v, want 1.25", got)
	}
	if got := d.ColumnMean(1); got != 5 {
		t.Errorf("ColumnMean(x) = %v, want 5", got)
	}
	lo, hi := d.ColumnMinMax(1)
	if lo != 2 || hi != 8 {
		t.Errorf("ColumnMinMax = %v,%v, want 2,8", lo, hi)
	}
	if got := d.TargetStdDev(); math.Abs(got-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("TargetStdDev = %v", got)
	}
}

func TestEmptyStatistics(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	if d.TargetMean() != 0 || d.TargetVariance() != 0 {
		t.Error("empty dataset stats should be zero")
	}
	lo, hi := d.ColumnMinMax(0)
	if lo != 0 || hi != 0 {
		t.Error("empty ColumnMinMax should be 0,0")
	}
}

func TestSplit(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	for i := 0; i < 10; i++ {
		d.MustAppend(Instance{float64(i), float64(i)})
	}
	left, right := d.Split(1, 4.5)
	if left.Len() != 5 || right.Len() != 5 {
		t.Fatalf("split sizes %d/%d, want 5/5", left.Len(), right.Len())
	}
	for i := 0; i < left.Len(); i++ {
		if left.Value(i, 1) > 4.5 {
			t.Errorf("left side contains value %v > threshold", left.Value(i, 1))
		}
	}
	for i := 0; i < right.Len(); i++ {
		if right.Value(i, 1) <= 4.5 {
			t.Errorf("right side contains value %v <= threshold", right.Value(i, 1))
		}
	}
}

func TestSplitBoundaryGoesLeft(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	d.MustAppend(Instance{1, 5})
	left, right := d.Split(1, 5)
	if left.Len() != 1 || right.Len() != 0 {
		t.Errorf("value equal to threshold should go left, got %d/%d", left.Len(), right.Len())
	}
}

func TestKFoldPartition(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	const n = 103
	for i := 0; i < n; i++ {
		d.MustAppend(Instance{float64(i), float64(i)})
	}
	folds, err := d.KFold(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := map[float64]int{}
	for _, f := range folds {
		if f.Train.Len()+f.Test.Len() != n {
			t.Errorf("fold train+test = %d, want %d", f.Train.Len()+f.Test.Len(), n)
		}
		// Balanced to within one row.
		if f.Test.Len() < n/10 || f.Test.Len() > n/10+1 {
			t.Errorf("unbalanced test fold size %d", f.Test.Len())
		}
		for i := 0; i < f.Test.Len(); i++ {
			seen[f.Test.Target(i)]++
		}
		// No overlap between train and test within one fold.
		inTest := map[float64]bool{}
		for i := 0; i < f.Test.Len(); i++ {
			inTest[f.Test.Target(i)] = true
		}
		for i := 0; i < f.Train.Len(); i++ {
			if inTest[f.Train.Target(i)] {
				t.Fatalf("row %v in both train and test", f.Train.Target(i))
			}
		}
	}
	// Every instance tested exactly once across folds.
	if len(seen) != n {
		t.Errorf("only %d distinct rows tested, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Errorf("row %v tested %d times", v, c)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	d.MustAppend(Instance{1, 1})
	if _, err := d.KFold(2, 1); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := d.KFold(1, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

func TestKFoldDeterministic(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	for i := 0; i < 30; i++ {
		d.MustAppend(Instance{float64(i), 0})
	}
	a, _ := d.KFold(3, 42)
	b, _ := d.KFold(3, 42)
	for f := range a {
		if a[f].Test.Len() != b[f].Test.Len() {
			t.Fatal("same seed produced different folds")
		}
		for i := 0; i < a[f].Test.Len(); i++ {
			if a[f].Test.Target(i) != b[f].Test.Target(i) {
				t.Fatal("same seed produced different fold membership")
			}
		}
	}
}

func TestTrainTestSplit(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	for i := 0; i < 100; i++ {
		d.MustAppend(Instance{float64(i), 0})
	}
	train, test, err := d.TrainTestSplit(0.7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 70 || test.Len() != 30 {
		t.Errorf("split sizes %d/%d", train.Len(), test.Len())
	}
	if _, _, err := d.TrainTestSplit(0, 3); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, _, err := d.TrainTestSplit(1, 3); err == nil {
		t.Error("fraction 1 accepted")
	}
}

func TestMergeSchemaMismatch(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	other := MustNew([]Attribute{{Name: "a"}}, 0)
	if err := d.Merge(other); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestAttrIndex(t *testing.T) {
	d := MustNew(twoColSchema(), 0)
	if d.AttrIndex("x") != 1 || d.AttrIndex("y") != 0 || d.AttrIndex("zzz") != -1 {
		t.Error("AttrIndex lookup wrong")
	}
}

func TestFeatureIndices(t *testing.T) {
	d := MustNew([]Attribute{{Name: "a"}, {Name: "y"}, {Name: "b"}}, 1)
	got := d.FeatureIndices()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("FeatureIndices = %v", got)
	}
}

// Property: variance is never negative and is zero for constant columns.
func TestVarianceProperties(t *testing.T) {
	f := func(vals []float64) bool {
		d := MustNew(twoColSchema(), 0)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp to a reasonable magnitude to avoid float overflow in
			// the squared sums.
			if math.Abs(v) > 1e8 {
				v = math.Mod(v, 1e8)
			}
			d.MustAppend(Instance{v, 1})
		}
		if d.Len() == 0 {
			return true
		}
		return d.TargetVariance() >= 0 && d.ColumnVariance(1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Split partitions the rows exactly.
func TestSplitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(n uint8, threshold float64) bool {
		if math.IsNaN(threshold) || math.IsInf(threshold, 0) {
			return true
		}
		d := MustNew(twoColSchema(), 0)
		for i := 0; i < int(n); i++ {
			d.MustAppend(Instance{0, rng.NormFloat64()})
		}
		l, r := d.Split(1, threshold)
		return l.Len()+r.Len() == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
