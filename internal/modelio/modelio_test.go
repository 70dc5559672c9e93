package modelio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/model"
	"repro/internal/mtree"
)

func trainData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}}, 0)
	for i := 0; i < n; i++ {
		a := rng.Float64()
		b := rng.Float64()
		y := 0.5 + 2*a
		if b > 0.5 {
			y = 1.5 + 4*a
		}
		d.MustAppend(dataset.Instance{y + 0.05*rng.NormFloat64(), a, b})
	}
	return d
}

// TestLoadDispatch: Load must hand tree files to the tree reader and
// ensemble files to the ensemble reader, both behind model.Model.
func TestLoadDispatch(t *testing.T) {
	d := trainData(600, 3)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 50
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tb bytes.Buffer
	if err := tree.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	m, err := Load(&tb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Describe().Kind != "m5-model-tree" {
		t.Errorf("tree file loaded as %q", m.Describe().Kind)
	}
	if got, want := m.Predict(d.Row(0)), tree.Predict(d.Row(0)); got != want {
		t.Errorf("loaded tree predicts %v, want %v", got, want)
	}

	ecfg := ensemble.DefaultConfig()
	ecfg.Trees = 3
	ecfg.Tree = cfg
	bag, err := ensemble.Train(d, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	var eb bytes.Buffer
	if err := bag.WriteJSON(&eb); err != nil {
		t.Fatal(err)
	}
	m, err = Load(&eb)
	if err != nil {
		t.Fatal(err)
	}
	if m.Describe().Kind != "bagged-m5" {
		t.Errorf("ensemble file loaded as %q", m.Describe().Kind)
	}
	if m.Describe().Trees != 3 {
		t.Errorf("ensemble description reports %d trees, want 3", m.Describe().Trees)
	}
	if got, want := m.Predict(d.Row(1)), bag.Predict(d.Row(1)); got != want {
		t.Errorf("loaded ensemble predicts %v, want %v", got, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("non-JSON input accepted")
	}
	if _, err := Load(strings.NewReader(`{"kind":"bagged-m5","schema_version":99,"trees":[{}]}`)); err == nil {
		t.Error("future ensemble accepted")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/model.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestWriteLoadRoundTrip drives Write/WriteFile/LoadFile/Decode for
// both model kinds: each file must load back to a model with identical
// predictions.
func TestWriteLoadRoundTrip(t *testing.T) {
	d := trainData(600, 4)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 50
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := ensemble.DefaultConfig()
	ecfg.Trees = 3
	ecfg.Tree = cfg
	bag, err := ensemble.Train(d, ecfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		m    model.Model
	}{
		{"tree", tree},
		{"ensemble", bag},
	} {
		path := filepath.Join(t.TempDir(), tc.name)
		if err := WriteFile(path, tc.m); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
		}
		got, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", tc.name, err)
		}
		for i := 0; i < 20; i++ {
			if g, w := got.Predict(d.Row(i)), tc.m.Predict(d.Row(i)); g != w {
				t.Fatalf("%s: row %d predicts %v, want %v", tc.name, i, g, w)
			}
		}
	}
}

// TestDecodeRejectsBinary: a file in the retired binary container
// format gets a one-line answer naming the fix, not a JSON syntax error.
func TestDecodeRejectsBinary(t *testing.T) {
	_, err := Decode([]byte("M5MB\x01\x00\x01\x00\x00\x00\x00\x00"))
	if err == nil || !strings.Contains(err.Error(), "re-save as JSON") {
		t.Fatalf("binary file: error %v, want the re-save hint", err)
	}
}

func TestWriteErrors(t *testing.T) {
	d := trainData(300, 5)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 50
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := Write(&b, mtree.Compile(tree)); err == nil {
		t.Error("compiled tree written; only the pointer-linked forms persist")
	}
	if err := WriteFile("/nonexistent/dir/model.json", tree); err == nil {
		t.Error("uncreatable path accepted")
	}
}
