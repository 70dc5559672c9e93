package mtree

import (
	"bytes"
	"testing"
)

// TestMachineTagSurvivesPersistence: the machine provenance tag must
// ride through every representation a tree can take — Describe, the
// compiled form and the JSON document — or a served model would
// silently lose the answer to "which machine was this trained on?".
func TestMachineTagSurvivesPersistence(t *testing.T) {
	d := piecewise(1200, 0.1, 5)
	cfg := DefaultConfig()
	cfg.MinLeaf = 80
	tree, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree.Machine = "nehalem"

	if got := tree.Describe().Machine; got != "nehalem" {
		t.Errorf("Describe().Machine = %q, want nehalem", got)
	}

	if got := Compile(tree).Describe().Machine; got != "nehalem" {
		t.Errorf("compiled Describe().Machine = %q, want nehalem", got)
	}

	var js bytes.Buffer
	if err := tree.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSON(&js)
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Machine != "nehalem" {
		t.Errorf("JSON round trip Machine = %q, want nehalem", fromJSON.Machine)
	}

	// An untagged tree must stay untagged (and keep the omitempty JSON).
	tree.Machine = ""
	var plain bytes.Buffer
	if err := tree.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain.Bytes(), []byte(`"machine"`)) {
		t.Error("untagged tree serialized a machine field")
	}
}
