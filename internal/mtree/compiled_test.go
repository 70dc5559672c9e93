package mtree_test

// Bit-identity properties of the compiled flat-array evaluator: for
// every generated tree and configuration, Compile(t) must reproduce the
// pointer walk exactly — predictions (smoothed and unsmoothed), batch
// kernel output, classifications, contributions and descriptions.
// "Exactly" is ==,
// not a tolerance: the compiled form replicates the arithmetic order,
// so any divergence is a bug, not rounding.

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/proptest"
)

// compileOrDie compiles and fails the test on a nil result.
func compileOrDie(t *testing.T, tree *mtree.Tree) *mtree.CompiledTree {
	t.Helper()
	c := mtree.Compile(tree)
	if c == nil {
		t.Fatal("Compile returned nil for a built tree")
	}
	return c
}

// TestCompiledPredictBitIdentical: compiled prediction equals the
// pointer walk bit for bit, in both smoothing regimes of the same tree.
func TestCompiledPredictBitIdentical(t *testing.T) {
	proptest.Run(t, "compiled-predict", 15, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)
		for _, smooth := range []bool{tree.Config.Smooth, !tree.Config.Smooth} {
			tree.Config.Smooth = smooth
			c := compileOrDie(t, tree)
			for i := 0; i < 30; i++ {
				row := genRow(r)
				want := tree.Predict(row)
				if got := c.Predict(row); got != want {
					t.Fatalf("smooth=%v row %d: compiled %v != tree %v", smooth, i, got, want)
				}
			}
		}
	})
}

// TestCompiledBatchKernel: PredictInto fills dst with exactly the
// per-row predictions, and the kernel allocates nothing.
func TestCompiledBatchKernel(t *testing.T) {
	proptest.Run(t, "compiled-batch", 10, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)
		c := compileOrDie(t, tree)
		rows := make([]dataset.Instance, r.IntBetween(1, 200))
		for i := range rows {
			rows[i] = genRow(r)
		}
		dst := make([]float64, len(rows))
		c.PredictInto(dst, rows)
		for i, row := range rows {
			if want := tree.Predict(row); dst[i] != want {
				t.Fatalf("row %d: kernel %v != tree %v", i, dst[i], want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			c.PredictInto(dst, rows)
		}); allocs != 0 {
			t.Fatalf("PredictInto allocates %v objects per call, want 0", allocs)
		}
	})
}

// TestCompiledClassifyAndContributions: the structural views agree with
// the pointer walk — same leaf, same path, same Eq. 4 decomposition.
func TestCompiledClassifyAndContributions(t *testing.T) {
	proptest.Run(t, "compiled-classify", 10, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)
		c := compileOrDie(t, tree)
		if c.NumLeaves() != tree.NumLeaves() {
			t.Fatalf("NumLeaves %d != %d", c.NumLeaves(), tree.NumLeaves())
		}
		if !reflect.DeepEqual(c.Describe(), tree.Describe()) {
			t.Fatalf("Describe %+v != %+v", c.Describe(), tree.Describe())
		}
		for i := 0; i < 20; i++ {
			row := genRow(r)
			wantLeaf, wantPath := tree.Classify(row)
			leaf, path := c.Classify(row)
			if leaf.LeafID != wantLeaf.LeafID || leaf.N != wantLeaf.N || leaf.Mean != wantLeaf.Mean {
				t.Fatalf("row %d: leaf (%d,%d,%v) != (%d,%d,%v)",
					i, leaf.LeafID, leaf.N, leaf.Mean, wantLeaf.LeafID, wantLeaf.N, wantLeaf.Mean)
			}
			if leaf.Model.Predict(row) != wantLeaf.Model.Predict(row) {
				t.Fatalf("row %d: leaf model predictions differ", i)
			}
			if !reflect.DeepEqual(path, wantPath) {
				t.Fatalf("row %d: path %+v != %+v", i, path, wantPath)
			}
			if !reflect.DeepEqual(c.Contributions(row), tree.Contributions(row)) {
				t.Fatalf("row %d: contributions differ", i)
			}
		}
	})
}
