package ensemble

import (
	"bytes"
	"strings"
	"testing"
)

// TestEnsembleRoundTrip: a saved-and-reloaded ensemble must predict
// byte-identically and keep its out-of-bag statistics.
func TestEnsembleRoundTrip(t *testing.T) {
	d := noisyPiecewise(800, 7)
	b, err := Train(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Trees) != len(b.Trees) {
		t.Fatalf("member count %d != %d", len(back.Trees), len(b.Trees))
	}
	if back.OOBError != b.OOBError || back.OOBCoverage != b.OOBCoverage {
		t.Errorf("OOB stats changed: %v/%v vs %v/%v",
			back.OOBError, back.OOBCoverage, b.OOBError, b.OOBCoverage)
	}
	for i := 0; i < d.Len(); i += 97 {
		if got, want := back.Predict(d.Row(i)), b.Predict(d.Row(i)); got != want {
			t.Fatalf("row %d: reloaded prediction %v != %v", i, got, want)
		}
	}
}

func TestEnsembleReadRejectsBadEnvelope(t *testing.T) {
	// Wrong kind (e.g. a single-tree file fed to the ensemble reader).
	if _, err := ReadJSON(strings.NewReader(`{"schema_version":1,"kind":"m5-model-tree","trees":[]}`)); err == nil {
		t.Error("wrong kind accepted")
	}
	// Future schema version.
	if _, err := ReadJSON(strings.NewReader(`{"schema_version":99,"kind":"bagged-m5","trees":[{}]}`)); err == nil {
		t.Error("future schema_version accepted")
	}
	// No members.
	if _, err := ReadJSON(strings.NewReader(`{"schema_version":1,"kind":"bagged-m5","trees":[]}`)); err == nil {
		t.Error("empty ensemble accepted")
	}
}

// TestEnsembleReadRejectsMixedSchemas: a member whose schema differs
// from member 0's is rejected by both loaders — evaluating one row
// against it would read past the row or misread its columns.
func TestEnsembleReadRejectsMixedSchemas(t *testing.T) {
	d := noisyPiecewise(800, 7)
	b, err := Train(d, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wide := *b.Trees[1]
	wide.AttrNames = append(append([]string(nil), wide.AttrNames...), "extra")
	b.Trees[1] = &wide

	var js bytes.Buffer
	if err := b.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&js); err == nil || !strings.Contains(err.Error(), "member 1 schema") {
		t.Errorf("JSON loader accepted a mixed-schema ensemble: %v", err)
	}
}
