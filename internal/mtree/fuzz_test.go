package mtree

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataset"
)

// FuzzTreeReadJSON hammers the persisted-tree loader: arbitrary bytes
// must never panic it, any tree it accepts must evaluate a zero row of
// its width — Predict, Contributions and Classify, pointer walk and
// compiled form alike, with matching predictions — and must re-persist
// to a stable fixed point (write→read→write byte-identical). That is
// the contract the property suite checks for well-formed trees, here
// pushed into the corners only a fuzzer finds (truncated nodes, absurd
// versions, missing models, attribute indices past the schema). The
// checked-in corpus under testdata/fuzz/ adds a leaf, a split tree, a
// future-version file and a full tree as cmd/train saves it.
func FuzzTreeReadJSON(f *testing.F) {
	valid := `{"schema_version":1,"config":{"MinLeaf":4,"SDThresholdFraction":0.05,"Prune":true,"Smooth":true,"SmoothingK":15,"DropAttributes":true,"SubtreeAttributesOnly":false},"target":"CPI","attrs":["CPI","L2M"],"train_n":10,"global_sd":0.5,"root":{"split_attr":-1,"model":{"intercept":1.5,"attrs":[1],"coefs":[90],"names":["L2M"]},"n":10,"sd":0.5,"mean":1.6,"leaf_id":1}}`
	f.Add([]byte(valid))
	f.Add([]byte(`{"schema_version":0,"root":{"split_attr":-1,"model":{"intercept":1},"n":1}}`))
	f.Add([]byte(`{"schema_version":99,"root":{"split_attr":-1,"n":1}}`))
	f.Add([]byte(`{"root":null}`))
	f.Add([]byte(`{"root":{"split_attr":0,"threshold":0.5,"left":{"split_attr":-1,"n":1},"n":2}}`))
	f.Add([]byte(`{"attrs":["CPI","L2M"],"root":{"split_attr":7,"threshold":0.5,"model":{"intercept":1},"left":{"split_attr":-1,"model":{"intercept":1},"n":1},"right":{"split_attr":-1,"model":{"intercept":2},"n":1},"n":2}}`))
	f.Add([]byte(`{"attrs":["CPI","L2M"],"root":{"split_attr":-1,"model":{"intercept":1,"attrs":[9],"coefs":[2]},"n":1}}`))
	f.Add([]byte(`{"attrs":["CPI","L2M"],"root":{"split_attr":-1,"model":{"intercept":1,"attrs":[1,1],"coefs":[2]},"n":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tree.Root == nil {
			t.Fatal("ReadJSON accepted a tree with nil root")
		}
		row := make(dataset.Instance, len(tree.AttrNames))
		c := Compile(tree)
		if p, cp := tree.Predict(row), c.Predict(row); p != cp && !(math.IsNaN(p) && math.IsNaN(cp)) {
			t.Fatalf("compiled prediction %v differs from the pointer walk's %v", cp, p)
		}
		tree.Contributions(row)
		tree.Classify(row)
		c.Contributions(row)
		c.Classify(row)
		var first bytes.Buffer
		if err := tree.WriteJSON(&first); err != nil {
			t.Fatalf("accepted tree does not write: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of persisted accepted tree failed: %v", err)
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("write->read->write is not a fixed point")
		}
	})
}
