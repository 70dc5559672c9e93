package serve

// Tests for the compiled serving path: the registry compiles models at
// registration, and the batch kernel in handlePredict produces
// responses byte-identical to the per-row fallback under every cache
// and worker configuration — the "which path ran" question must be
// unanswerable from outside.

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/model"
	"repro/internal/mtree"
)

// plainModel hides everything but the model.Model methods, so a
// registered model skips compilation and the batch kernel — the per-row
// fallback path, kept testable after the registry learned to compile.
type plainModel struct{ model.Model }

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

// TestRegistryCompilesOnRegister: Compilable models come out of the
// registry in compiled form; already-compiled and non-compilable models
// are stored as-is.
func TestRegistryCompilesOnRegister(t *testing.T) {
	d := perfData(400, 3)
	tree := buildServeTree(t, d)
	bag, err := ensemble.Train(d, ensemble.Config{Trees: 3, Tree: tree.Config, SampleFraction: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	for name, m := range map[string]model.Model{
		"tree": tree, "bag": bag, "plain": plainModel{tree},
	} {
		if err := reg.Register(name, "v1", m, ""); err != nil {
			t.Fatal(err)
		}
	}
	for name, want := range map[string]bool{"tree": true, "bag": true, "plain": false} {
		e, err := reg.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := e.Model.(model.BatchPredictor); ok != want {
			t.Errorf("%s: stored as batch-capable %v, want %v (%T)", name, ok, want, e.Model)
		}
	}
	if e, _ := reg.Get("tree"); e != nil {
		if _, ok := e.Model.(*mtree.CompiledTree); !ok {
			t.Errorf("tree stored as %T, want *mtree.CompiledTree", e.Model)
		}
	}
	if e, _ := reg.Get("bag"); e != nil {
		if _, ok := e.Model.(*ensemble.CompiledBagger); !ok {
			t.Errorf("ensemble stored as %T, want *ensemble.CompiledBagger", e.Model)
		}
	}
}

// TestBatchKernelResponseIdentical: for the same request, the compiled
// batch kernel and the per-row pointer walk return byte-identical
// bodies — across batch sizes, cache off/cold/warm, and both model
// kinds.
func TestBatchKernelResponseIdentical(t *testing.T) {
	d := perfData(600, 11)
	tree := buildServeTree(t, d)
	bag, err := ensemble.Train(d, ensemble.Config{Trees: 4, Tree: tree.Config, SampleFraction: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	configs := []Config{
		{CacheSize: 0, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
		{CacheSize: 512, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
		{CacheSize: 4096, MaxBodyBytes: 1 << 22, MaxBatch: 4096},
	}
	for _, m := range []struct {
		name  string
		model model.Model
	}{{"tree", tree}, {"ensemble", bag}} {
		for _, rows := range []int{1, 64, 300} {
			body := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, rows))
			contribBody := fmt.Sprintf(`{"model":"cpi","rows":%s,"contributions":true}`, rowsJSON(d, 0, rows))
			for ci, cfg := range configs {
				serve := func(candidate model.Model, body string) string {
					reg := NewRegistry()
					if err := reg.Register("cpi", "v1", candidate, ""); err != nil {
						t.Fatal(err)
					}
					h := New(reg, cfg).Handler()
					var last string
					// Two requests: the second hits a warm cache when enabled.
					for i := 0; i < 2; i++ {
						rec := post(h, "/v1/predict", body)
						if rec.Code != http.StatusOK {
							t.Fatalf("status %d: %s", rec.Code, rec.Body)
						}
						if i > 0 && last != rec.Body.String() {
							t.Fatalf("%s rows=%d cfg=%d: warm response differs from cold", m.name, rows, ci)
						}
						last = rec.Body.String()
					}
					return last
				}
				compiled := serve(m.model, body)
				plain := serve(plainModel{m.model}, body)
				if compiled != plain {
					t.Fatalf("%s rows=%d cfg=%d: kernel response differs from per-row fallback\nkernel: %s\nplain:  %s",
						m.name, rows, ci, compiled, plain)
				}
				if cc, pc := serve(m.model, contribBody), serve(plainModel{m.model}, contribBody); cc != pc {
					t.Fatalf("%s rows=%d cfg=%d: contributions response differs under compilation", m.name, rows, ci)
				}
			}
		}
	}
}
