package mtree_test

// Property and metamorphic tests for the M5' learner: the Eq. 4
// contribution arithmetic, structural invariants of built trees, the
// pruning guarantees, the smoothing-off identity, and byte-exact
// persistence across schema versions — all over generated datasets and
// configurations rather than one fixture.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/mtree"
	"repro/internal/proptest"
)

// buildRandom trains a tree on a generated dataset with a generated
// configuration.
func buildRandom(t *testing.T, r *proptest.Rand) (*mtree.Tree, *dataset.Dataset) {
	t.Helper()
	d := proptest.PerfDataset(r, r.IntBetween(80, 400))
	tree, err := mtree.Build(d, proptest.TreeConfig(r))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tree, d
}

// genRow produces a prediction input, mostly in-distribution with
// occasional out-of-range values to exercise extrapolation.
func genRow(r *proptest.Rand) dataset.Instance {
	row := dataset.Instance{0, r.Range(0, 0.01), r.Range(0, 0.008), r.Range(0, 0.003)}
	if r.Bool(0.15) {
		row[1+r.Intn(3)] = r.Range(-0.01, 0.05)
	}
	return row
}

// TestContributionsSumToPrediction: the Eq. 4 decomposition is exact —
// each term is literally coef*rate, and intercept plus the terms
// reproduces the unsmoothed leaf prediction (up to summation order).
func TestContributionsSumToPrediction(t *testing.T) {
	proptest.Run(t, "eq4-sums", 15, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)
		for i := 0; i < 25; i++ {
			row := genRow(r)
			leaf, _ := tree.Classify(row)
			pred := leaf.Model.Predict(row)
			sum := leaf.Model.Intercept
			for _, c := range tree.Contributions(row) {
				if c.Cycles != c.Coef*c.Rate {
					t.Fatalf("row %d: Cycles %v != Coef %v * Rate %v", i, c.Cycles, c.Coef, c.Rate)
				}
				if c.Rate != row[c.Attr] {
					t.Fatalf("row %d: Rate %v != row[%d] = %v", i, c.Rate, c.Attr, row[c.Attr])
				}
				if pred != 0 && math.Abs(c.Fraction-c.Cycles/pred) > 1e-12 {
					t.Fatalf("row %d: Fraction %v != Cycles/pred %v", i, c.Fraction, c.Cycles/pred)
				}
				sum += c.Cycles
			}
			if math.Abs(sum-pred) > 1e-9*math.Max(1, math.Abs(pred)) {
				t.Fatalf("row %d: intercept+contributions %v != leaf prediction %v", i, sum, pred)
			}
		}
	})
}

// TestStructuralInvariants: every built tree is well-formed — interior
// nodes have two children and a real split, leaves are numbered 1..k in
// left-to-right order, Classify's path matches the row, and with
// smoothing off Predict is exactly the leaf model's output.
func TestStructuralInvariants(t *testing.T) {
	proptest.Run(t, "tree-structure", 15, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)

		wantID := 0
		tree.WalkLeaves(func(leaf *mtree.Node, _ []mtree.PathStep) {
			wantID++
			if leaf.LeafID != wantID {
				t.Fatalf("leaf numbered %d at left-to-right position %d", leaf.LeafID, wantID)
			}
			if leaf.SplitAttr != -1 || leaf.Left != nil || leaf.Right != nil {
				t.Fatalf("leaf %d carries split state", leaf.LeafID)
			}
			if leaf.Model == nil {
				t.Fatalf("leaf %d has no model", leaf.LeafID)
			}
			if leaf.N < 1 {
				t.Fatalf("leaf %d trained on %d instances", leaf.LeafID, leaf.N)
			}
		})
		if wantID != tree.NumLeaves() {
			t.Fatalf("WalkLeaves saw %d leaves, NumLeaves says %d", wantID, tree.NumLeaves())
		}
		if tree.Depth() < 1 || (tree.NumLeaves() == 1) != tree.Root.IsLeaf() {
			t.Fatalf("depth %d / leaves %d inconsistent", tree.Depth(), tree.NumLeaves())
		}

		for i := 0; i < 20; i++ {
			row := genRow(r)
			leaf, path := tree.Classify(row)
			if got := tree.Leaf(leaf.LeafID); got != leaf {
				t.Fatalf("Leaf(%d) returned a different node", leaf.LeafID)
			}
			for _, step := range path {
				if step.Above != (row[step.Attr] > step.Threshold) {
					t.Fatalf("path step %+v contradicts row value %v", step, row[step.Attr])
				}
			}
			if !tree.Config.Smooth {
				if got := tree.Predict(row); got != leaf.Model.Predict(row) {
					t.Fatalf("smoothing off but Predict %v != leaf model %v", got, leaf.Model.Predict(row))
				}
			}
			if p := tree.Predict(row); math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("Predict returned %v", p)
			}
		}
	})
}

// subtreeCorrectedError recomputes the complexity-corrected training
// error the pruner optimizes: leaves score their fitted model, interior
// nodes take the instance-weighted average of their children on the
// routed data. fitNodes stores in each node the model its pruning
// decision evaluated, so this reproduces the pruner's objective from
// public API alone.
func subtreeCorrectedError(n *mtree.Node, d *dataset.Dataset) float64 {
	if n.IsLeaf() || d.Len() == 0 {
		return linreg.CorrectedError(n.Model, d)
	}
	left, right := d.Split(n.SplitAttr, n.Threshold)
	if left.Len() == 0 || right.Len() == 0 {
		return linreg.CorrectedError(n.Model, d)
	}
	le := subtreeCorrectedError(n.Left, left)
	re := subtreeCorrectedError(n.Right, right)
	return (float64(left.Len())*le + float64(right.Len())*re) / float64(d.Len())
}

// TestPruningMonotone: pruning can only shrink the tree, and the pruned
// tree's complexity-corrected training error never exceeds the unpruned
// tree's — the pruner takes the min of keep-vs-collapse at every node.
func TestPruningMonotone(t *testing.T) {
	proptest.Run(t, "pruning-monotone", 12, func(t *testing.T, r *proptest.Rand) {
		d := proptest.PerfDataset(r, r.IntBetween(100, 400))
		cfg := proptest.TreeConfig(r)

		cfg.Prune = false
		unpruned, err := mtree.Build(d, cfg)
		if err != nil {
			t.Fatalf("Build unpruned: %v", err)
		}
		cfg.Prune = true
		pruned, err := mtree.Build(d, cfg)
		if err != nil {
			t.Fatalf("Build pruned: %v", err)
		}

		if pruned.NumLeaves() > unpruned.NumLeaves() {
			t.Fatalf("pruning grew the tree: %d -> %d leaves", unpruned.NumLeaves(), pruned.NumLeaves())
		}
		if pruned.Depth() > unpruned.Depth() {
			t.Fatalf("pruning deepened the tree: %d -> %d", unpruned.Depth(), pruned.Depth())
		}
		eu := subtreeCorrectedError(unpruned.Root, d)
		ep := subtreeCorrectedError(pruned.Root, d)
		if ep > eu*(1+1e-12) {
			t.Fatalf("pruning raised corrected training error %v -> %v", eu, ep)
		}
	})
}

// TestPersistRoundTrip: write→read→write is a byte-identical fixed
// point; the same file with schema_version 0 (the pre-versioning format)
// loads to the same tree; a future version is rejected.
func TestPersistRoundTrip(t *testing.T) {
	proptest.Run(t, "persist-roundtrip", 12, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)

		var v1 bytes.Buffer
		if err := tree.WriteJSON(&v1); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		loaded, err := mtree.ReadJSON(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSON: %v", err)
		}
		var v1Again bytes.Buffer
		if err := loaded.WriteJSON(&v1Again); err != nil {
			t.Fatalf("WriteJSON after load: %v", err)
		}
		if !bytes.Equal(v1.Bytes(), v1Again.Bytes()) {
			t.Fatal("persist -> load -> persist is not byte-identical")
		}

		// The v0 (pre-versioning) payload is identical apart from the
		// version field; loading it must reproduce the same v1 bytes.
		marker := "\"schema_version\": 1"
		if n := strings.Count(v1.String(), marker); n != 1 {
			t.Fatalf("expected exactly one version marker, found %d", n)
		}
		v0 := strings.Replace(v1.String(), marker, "\"schema_version\": 0", 1)
		fromV0, err := mtree.ReadJSON(strings.NewReader(v0))
		if err != nil {
			t.Fatalf("ReadJSON(v0): %v", err)
		}
		var upgraded bytes.Buffer
		if err := fromV0.WriteJSON(&upgraded); err != nil {
			t.Fatalf("WriteJSON(v0-loaded): %v", err)
		}
		if !bytes.Equal(v1.Bytes(), upgraded.Bytes()) {
			t.Fatal("v0 file did not upgrade to byte-identical v1 output")
		}

		future := strings.Replace(v1.String(), marker,
			"\"schema_version\": 99", 1)
		if _, err := mtree.ReadJSON(strings.NewReader(future)); err == nil {
			t.Fatal("future schema version was accepted")
		}

		// Loaded trees predict identically to the original.
		for i := 0; i < 10; i++ {
			row := genRow(r)
			if tree.Predict(row) != loaded.Predict(row) {
				t.Fatalf("loaded tree diverges on row %d", i)
			}
		}
	})
}

// TestBuildDeterministic: the same dataset and configuration always
// produce the same persisted bytes, regardless of the Jobs knob.
func TestBuildDeterministic(t *testing.T) {
	proptest.Run(t, "build-deterministic", 8, func(t *testing.T, r *proptest.Rand) {
		d := proptest.PerfDataset(r, r.IntBetween(100, 300))
		cfg := proptest.TreeConfig(r)
		persist := func(jobs int) []byte {
			cfg.Jobs = jobs
			tree, err := mtree.Build(d, cfg)
			if err != nil {
				t.Fatalf("Build(jobs=%d): %v", jobs, err)
			}
			var buf bytes.Buffer
			if err := tree.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		serial := persist(1)
		if !bytes.Equal(serial, persist(4)) {
			t.Fatal("tree differs between Jobs=1 and Jobs=4")
		}
		if !bytes.Equal(serial, persist(1)) {
			t.Fatal("tree differs between two identical builds")
		}
	})
}
