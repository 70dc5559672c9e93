package serve

// Tests for the compiled serving path: the registry compiles every model
// at registration or rejects it, and /v1/predict answers exactly what
// the uncompiled pointer walk would, under every cache configuration.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/model"
	"repro/internal/mtree"
)

func buildServeTree(t testing.TB, d *dataset.Dataset) *mtree.Tree {
	t.Helper()
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 40
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestRegistryCompilesOnRegister: a tree comes out of the registry in
// compiled form, and a model that does not compile to a batch evaluator
// is rejected without installing anything.
func TestRegistryCompilesOnRegister(t *testing.T) {
	d := perfData(400, 3)
	tree := buildServeTree(t, d)

	reg := NewRegistry()
	if err := reg.Register("tree", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	if e, _ := reg.Get("tree"); e != nil {
		if _, ok := e.Model.(*mtree.CompiledTree); !ok {
			t.Errorf("tree stored as %T, want *mtree.CompiledTree", e.Model)
		}
	}

	// kernelless hides everything but the model.Model methods, so it
	// neither compiles nor carries the batch kernel. A rootless tree
	// compiles to nothing. A tree with a one-child
	// interior node, or with a model term outside its schema, fails the
	// checks a decoded file gets: the first would panic while compiling,
	// the second on its first prediction.
	type kernelless struct{ model.Model }
	leaf := func(attrs ...int) *mtree.Node {
		return &mtree.Node{Model: &linreg.Model{Intercept: 1, Attrs: attrs, Coefs: make([]float64, len(attrs))}}
	}
	schema := []string{"a", "b"}
	oneChild := &mtree.Tree{TargetName: "cpi", AttrNames: schema,
		Root: &mtree.Node{SplitAttr: 0, Threshold: 1, Left: leaf(), Model: leaf().Model}}
	badAttr := &mtree.Tree{TargetName: "cpi", AttrNames: schema, Root: leaf(7)}
	// Each rejection carries the compiler's reason.
	for name, tc := range map[string]struct {
		m      model.Model
		reason string
	}{
		"plain":    {kernelless{tree}, "no batch kernel"},
		"rootless": {&mtree.Tree{}, "no root"},
		"onechild": {oneChild, "one child"},
		"badattr":  {badAttr, "reads attribute 7 outside the 2-column schema"},
	} {
		if err := reg.Register(name, "v1", tc.m, ""); err == nil || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: registry error %v, want a rejection mentioning %q", name, err, tc.reason)
		}
		if _, err := reg.Get(name); err == nil || reg.Len() != 1 || reg.Latest(name) != "" {
			t.Errorf("%s: rejected model was installed: len %d, latest %q", name, reg.Len(), reg.Latest(name))
		}
	}
}

// noClassify carries the batch kernel but no leaf classes.
type noClassify struct{ model.Model }

func (noClassify) PredictInto([]float64, []dataset.Instance) {}

// TestRegisterRejectsUnclassifiableModel: Register refuses a model that
// cannot answer /v1/classify, naming its type, so every served model
// answers every route and classify meets no model it cannot route.
func TestRegisterRejectsUnclassifiableModel(t *testing.T) {
	tree := buildServeTree(t, perfData(400, 3))
	reg := NewRegistry()
	err := reg.Register("nc", "v1", noClassify{mtree.Compile(tree)}, "")
	if err == nil || !strings.Contains(err.Error(), "serve.noClassify") {
		t.Fatalf("Register error %v, want a rejection naming serve.noClassify", err)
	}
	if reg.Len() != 0 {
		t.Fatalf("rejected model installed: %d entries", reg.Len())
	}
	h := New(reg, DefaultConfig()).Handler()
	if rec := post(h, "/v1/classify", `{"model":"nc","row":[0,0,0,0]}`); rec.Code != http.StatusNotFound {
		t.Errorf("classify on the rejected model: status %d, want 404: %s", rec.Code, rec.Body)
	}
}

// TestRegistryLoadFile: LoadFile registers a JSON model file under its
// path, and a file that does not load — garbage, a retired binary
// model file, a missing path — installs nothing.
func TestRegistryLoadFile(t *testing.T) {
	tree := buildServeTree(t, perfData(400, 3))
	dir := t.TempDir()
	reg := NewRegistry()
	path := filepath.Join(dir, "tree.json")
	if err := tree.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := reg.LoadFile("cpi", "v1", path); err != nil {
		t.Fatal(err)
	}
	if e, err := reg.Get("cpi@v1"); err != nil || e.Path != path {
		t.Errorf("JSON file registered as %+v (%v)", e, err)
	}
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	binary := filepath.Join(dir, "tree.bin")
	if err := os.WriteFile(binary, []byte("M5MB\x01\x00\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{garbage, binary, filepath.Join(dir, "missing")} {
		if err := reg.LoadFile("bad", "v1", path); err == nil {
			t.Errorf("%s: loaded", path)
		}
	}
	if reg.Len() != 1 {
		t.Errorf("registry holds %d entries after three failed loads, want 1", reg.Len())
	}
}

// TestBatchKernelResponseIdentical: every /v1/predict body equals the
// body built from the uncompiled model's own Predict and Contributions
// — the pointer walk stays the reference — across batch sizes, cache
// off/cold/warm, with and without contributions.
func TestBatchKernelResponseIdentical(t *testing.T) {
	d := perfData(600, 11)
	tree := buildServeTree(t, d)

	configs := []Config{
		{CacheSize: 0, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
		{CacheSize: 512, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
		{CacheSize: 4096, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
	}
	for _, rows := range []int{1, 64, 300} {
		for _, contrib := range []bool{false, true} {
			want := predictResponse{Model: "cpi@v1", N: rows, Predictions: make([]float64, rows)}
			if contrib {
				want.Contributions = make([][]model.Contribution, rows)
			}
			for i := 0; i < rows; i++ {
				want.Predictions[i] = tree.Predict(d.Row(i))
				if contrib {
					want.Contributions[i] = tree.Contributions(d.Row(i))
				}
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf(`{"model":"cpi","rows":%s,"contributions":%t}`, rowsJSON(d, 0, rows), contrib)
			for ci, cfg := range configs {
				reg := NewRegistry()
				if err := reg.Register("cpi", "v1", tree, ""); err != nil {
					t.Fatal(err)
				}
				h := New(reg, cfg).Handler()
				// Twice: the second request hits a warm cache when enabled.
				for pass := 0; pass < 2; pass++ {
					rec := post(h, "/v1/predict", body)
					if rec.Code != http.StatusOK {
						t.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
					if got := rec.Body.String(); got != string(wantBody)+"\n" {
						t.Fatalf("rows=%d contributions=%t cfg=%d pass=%d: served body differs from the pointer walk\nserved: %s\nwant:   %s",
							rows, contrib, ci, pass, got, wantBody)
					}
				}
			}
		}
	}

	// /v1/classify on the registered tree answers what the pointer
	// tree's own Classify says: leaf, decision path and leaf estimate.
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	h := New(reg, configs[0]).Handler()
	for _, rows := range []int{1, 64, 300} {
		want := classifyResponse{Model: "cpi@v1", N: rows, Classes: make([]classification, rows)}
		for i := range want.Classes {
			row := d.Row(i)
			leaf, path := tree.Classify(row)
			steps := make([]classifyStep, len(path))
			for j, st := range path {
				steps[j] = classifyStep{Event: st.Name, Threshold: st.Threshold, Above: st.Above}
			}
			want.Classes[i] = classification{LeafID: leaf.LeafID, Path: steps,
				Prediction: leaf.Model.Predict(row), TrainN: leaf.N, TrainMean: leaf.Mean}
		}
		wantBody, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		rec := post(h, "/v1/classify", fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, rows)))
		if rec.Code != http.StatusOK {
			t.Fatalf("classify status %d: %s", rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != string(wantBody)+"\n" {
			t.Fatalf("classify rows=%d: served body differs from the pointer tree\nserved: %s\nwant:   %s", rows, got, wantBody)
		}
	}
}
