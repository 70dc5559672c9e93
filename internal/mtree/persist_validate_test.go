package mtree_test

// Structural validation of persisted trees: a file whose shape would
// make evaluation read outside a row or walk off the node arrays is
// rejected at load time with a descriptive error.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/mtree"
)

// TestLoadersRejectInvalidStructure: a tree whose split or model reads a
// column outside its schema, whose model terms do not pair up, whose
// node lacks a model, whose interior node has a single child, or whose
// index does not fit int32 is rejected by ReadJSON instead of loading
// and panicking on the first prediction — and, built in process, by
// CompileModel, so the serving registry refuses it too.
func TestLoadersRejectInvalidStructure(t *testing.T) {
	lm := func(attrs []int, coefs []float64) *linreg.Model {
		return &linreg.Model{Intercept: 1, Attrs: attrs, Coefs: coefs}
	}
	valid := func() *mtree.Tree {
		return &mtree.Tree{
			Config:     mtree.Config{MinLeaf: 4, SDThresholdFraction: 0.05},
			TargetName: "CPI",
			AttrNames:  []string{"CPI", "L2M"},
			Root: &mtree.Node{
				SplitAttr: 1, Threshold: 0.5, Model: lm([]int{1}, []float64{2}), N: 4,
				Left:  &mtree.Node{SplitAttr: -1, Model: lm([]int{1}, []float64{3}), N: 2, LeafID: 1},
				Right: &mtree.Node{SplitAttr: -1, Model: lm(nil, nil), N: 2, LeafID: 2},
			},
		}
	}
	cases := []struct {
		name       string
		mutate     func(*mtree.Tree)
		wantSubstr string
	}{
		{"split attr past schema", func(t *mtree.Tree) { t.Root.SplitAttr = 7 }, "attribute 7"},
		{"interior node without split attr", func(t *mtree.Tree) { t.Root.SplitAttr = -1 }, "child links"},
		{"leaf model attr past schema", func(t *mtree.Tree) { t.Root.Left.Model.Attrs = []int{9} }, "attribute 9"},
		{"negative leaf model attr", func(t *mtree.Tree) { t.Root.Left.Model.Attrs = []int{-1} }, "attribute -1"},
		{"more attrs than coefs", func(t *mtree.Tree) { t.Root.Left.Model.Attrs = []int{1, 1} }, ""},
		{"terms pair up only in total", func(t *mtree.Tree) {
			t.Root.Left.Model.Attrs = []int{1, 1}
			t.Root.Right.Model.Coefs = []float64{4}
		}, "attrs but"},
		{"leaf without model", func(t *mtree.Tree) { t.Root.Right.Model = nil }, "no linear model"},
		{"interior node without model", func(t *mtree.Tree) { t.Root.Model = nil }, "no linear model"},
		{"one child", func(t *mtree.Tree) { t.Root.Right = nil }, "one child"},
		{"split attr beyond int32", func(t *mtree.Tree) { t.Root.SplitAttr = 1<<32 + 1 }, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := valid()
			tc.mutate(tree)
			if m, err := tree.CompileModel(); err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("CompileModel returned %T, error %v, want one mentioning %q", m, err, tc.wantSubstr)
			}
			var js bytes.Buffer
			if err := tree.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if _, err := mtree.ReadJSON(&js); err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("error %v, want one mentioning %q", err, tc.wantSubstr)
			}
		})
	}

	// The unmutated fixture compiles, loads and evaluates.
	if _, err := valid().CompileModel(); err != nil {
		t.Fatalf("valid fixture does not compile: %v", err)
	}
	var js bytes.Buffer
	if err := valid().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	jt, err := mtree.ReadJSON(&js)
	if err != nil {
		t.Fatalf("valid fixture rejected: %v", err)
	}
	if got := jt.Predict(dataset.Instance{0, 0.25}); got != 1.75 {
		t.Errorf("fixture predicts %v, want 1.75", got)
	}
}
