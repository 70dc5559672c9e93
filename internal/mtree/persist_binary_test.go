package mtree_test

// Properties of the binary model format: write→read→write is a
// byte-stable fixed point, loaded trees predict bit-identically to the
// source tree, the binary and JSON formats describe the same model, and
// truncated or corrupt files fail with descriptive errors instead of
// panicking or loading garbage.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/mtree"
	"repro/internal/proptest"
)

// TestBinaryRoundTrip: persist→load→persist reproduces the same bytes,
// and the loaded compiled tree is observationally identical to the
// original — including through the JSON bridge (decompile → WriteJSON).
func TestBinaryRoundTrip(t *testing.T) {
	proptest.Run(t, "binary-roundtrip", 12, func(t *testing.T, r *proptest.Rand) {
		tree, _ := buildRandom(t, r)

		var b1 bytes.Buffer
		if err := tree.WriteBinary(&b1); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		loaded, err := mtree.ReadBinary(b1.Bytes())
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		var b2 bytes.Buffer
		if err := loaded.WriteBinary(&b2); err != nil {
			t.Fatalf("WriteBinary after load: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("binary persist -> load -> persist is not byte-identical")
		}

		for i := 0; i < 20; i++ {
			row := genRow(r)
			if loaded.Predict(row) != tree.Predict(row) {
				t.Fatalf("binary-loaded tree diverges on row %d", i)
			}
		}

		var wantJSON, gotJSON bytes.Buffer
		if err := tree.WriteJSON(&wantJSON); err != nil {
			t.Fatal(err)
		}
		if err := loaded.Tree().WriteJSON(&gotJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
			t.Fatal("binary round trip does not reproduce the JSON persisted form")
		}
	})
}

// TestBinaryCorruption: every truncation of a valid file, and a set of
// targeted corruptions, must produce an error — never a panic, never a
// silently wrong tree.
func TestBinaryCorruption(t *testing.T) {
	r := proptest.NewRand(proptest.CaseSeed(t.Name(), 0))
	tree, _ := buildRandom(t, r)
	var buf bytes.Buffer
	if err := tree.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	valid := buf.Bytes()

	if _, err := mtree.ReadBinary(valid); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	// Every truncation must either be rejected or — when only trailing
	// alignment padding was cut — still load the identical model.
	for n := 0; n < len(valid); n++ {
		loaded, err := mtree.ReadBinary(valid[:n])
		if err != nil {
			continue
		}
		var again bytes.Buffer
		if err := loaded.WriteBinary(&again); err != nil {
			t.Fatalf("truncation to %d bytes loaded but cannot re-persist: %v", n, err)
		}
		if !bytes.Equal(again.Bytes(), valid) {
			t.Fatalf("truncation to %d of %d bytes loaded a different model", n, len(valid))
		}
	}

	corrupt := func(name string, mutate func(b []byte), wantSub string) {
		b := append([]byte(nil), valid...)
		mutate(b)
		_, err := mtree.ReadBinary(b)
		if err == nil {
			t.Fatalf("%s: corrupt file was accepted", name)
		}
		if wantSub != "" && !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'X' }, "magic")
	corrupt("future version", func(b []byte) { b[4] = 0xFF }, "version")
	corrupt("wrong kind", func(b []byte) { b[6] = 0x7F }, "kind")
	corrupt("misaligned section", func(b []byte) { b[16+8]++ }, "aligned")
	corrupt("section out of range", func(b []byte) { b[16+8+6] = 0xFF }, "past")
}

// TestBinaryKindConfusion: a tree loader must reject an ensemble file
// (and Read the other way is checked in internal/ensemble).
func TestBinaryKindConfusion(t *testing.T) {
	r := proptest.NewRand(proptest.CaseSeed(t.Name(), 0))
	tree, _ := buildRandom(t, r)
	var buf bytes.Buffer
	if err := tree.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[6] = 2 // binfmt.KindEnsemble
	if _, err := mtree.ReadBinary(b); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Fatalf("ensemble-kinded file accepted by tree loader: %v", err)
	}
}

// TestLoadersRejectInvalidStructure: both loaders run one validator, so
// a tree whose split or model reads a column outside its schema, whose
// model terms do not pair up, or whose node lacks a model is rejected
// by JSON and binary alike instead of loading and panicking on the
// first prediction. Two shapes only JSON can carry (a single child and
// an index beyond int32) are rejected by the JSON loader.
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
		jsonOnly   bool
		wantSubstr string
	}{
		{"split attr past schema", func(t *mtree.Tree) { t.Root.SplitAttr = 7 }, false, "attribute 7"},
		{"interior node without split attr", func(t *mtree.Tree) { t.Root.SplitAttr = -1 }, false, "child links"},
		{"leaf model attr past schema", func(t *mtree.Tree) { t.Root.Left.Model.Attrs = []int{9} }, false, "attribute 9"},
		{"negative leaf model attr", func(t *mtree.Tree) { t.Root.Left.Model.Attrs = []int{-1} }, false, "attribute -1"},
		{"more attrs than coefs", func(t *mtree.Tree) { t.Root.Left.Model.Attrs = []int{1, 1} }, false, ""},
		{"leaf without model", func(t *mtree.Tree) { t.Root.Right.Model = nil }, false, "no linear model"},
		{"interior node without model", func(t *mtree.Tree) { t.Root.Model = nil }, false, "no linear model"},
		{"one child", func(t *mtree.Tree) { t.Root.Right = nil }, true, "one child"},
		{"split attr beyond int32", func(t *mtree.Tree) { t.Root.SplitAttr = 1<<32 + 1 }, true, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := valid()
			tc.mutate(tree)
			var js bytes.Buffer
			if err := tree.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if _, err := mtree.ReadJSON(&js); err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("JSON loader: error %v, want one mentioning %q", err, tc.wantSubstr)
			}
			if tc.jsonOnly {
				return
			}
			var bin bytes.Buffer
			if err := tree.WriteBinary(&bin); err != nil {
				t.Fatal(err)
			}
			if _, err := mtree.ReadBinary(bin.Bytes()); err == nil || !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Errorf("binary loader: error %v, want one mentioning %q", err, tc.wantSubstr)
			}
		})
	}

	// The unmutated fixture loads through both and evaluates.
	tree := valid()
	var js, bin bytes.Buffer
	if err := tree.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	jt, err := mtree.ReadJSON(&js)
	if err != nil {
		t.Fatalf("valid fixture rejected by JSON loader: %v", err)
	}
	bt, err := mtree.ReadBinary(bin.Bytes())
	if err != nil {
		t.Fatalf("valid fixture rejected by binary loader: %v", err)
	}
	row := dataset.Instance{0, 0.25}
	if jt.Predict(row) != 1.75 || bt.Predict(row) != 1.75 {
		t.Errorf("fixture predicts %v (JSON) / %v (binary), want 1.75", jt.Predict(row), bt.Predict(row))
	}
}
