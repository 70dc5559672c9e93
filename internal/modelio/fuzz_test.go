package modelio

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
)

// evaluate runs every per-row query the service makes on a zero row of
// the model's width; a model that loads must answer them all.
func evaluate(m model.Model) {
	row := make(dataset.Instance, len(m.Describe().AttrNames))
	m.Predict(row)
	m.Contributions(row)
	m.TopContribution(row)
	if bp, ok := m.(model.BatchPredictor); ok {
		bp.PredictInto(make([]float64, 1), []dataset.Instance{row})
	}
	if cl, ok := m.(interface {
		Classify(dataset.Instance) (*mtree.Node, []mtree.PathStep)
	}); ok {
		cl.Classify(row)
	}
}

// FuzzModelDecode hammers the model loader with arbitrary bytes —
// mostly mutations of real JSON model files (the checked-in corpus
// under testdata/fuzz/ holds a valid tree, a valid ensemble and an
// ensemble whose members disagree on the schema; the seeds below add a
// member-less ensemble and binary container headers). The loader must
// never panic; any model it accepts must evaluate a zero row of its
// width (Predict, Contributions, and Classify for trees) as loaded and
// as the serving registry compiles it, and must re-persist to a stable
// fixed point (write→load→write byte-identical). The structural
// validation in mtree.ReadJSON and ensemble.ReadJSON is what stands
// between a mutated file and an out-of-bounds tree walk, and this
// target is its adversarial workout.
func FuzzModelDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("M5MB"))
	f.Add([]byte("M5MB\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte(`{"kind":"bagged-m5","trees":[]}`))
	f.Add([]byte(`not a model`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		evaluate(m)
		c, ok := m.(model.Compilable)
		if !ok {
			t.Fatalf("accepted %T does not compile", m)
		}
		cm, err := c.CompileModel()
		if err != nil {
			t.Fatalf("accepted model does not compile: %v", err)
		}
		evaluate(cm)
		var first bytes.Buffer
		if err := Write(&first, m); err != nil {
			t.Fatalf("accepted model does not write: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-load of persisted accepted model failed: %v", err)
		}
		var second bytes.Buffer
		if err := Write(&second, again); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("write->load->write is not a fixed point")
		}
	})
}
