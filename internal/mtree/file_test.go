package mtree

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteLoadRoundTrip: a tree saved with WriteFile loads back through
// ReadFile with identical predictions, and re-saves to the same bytes.
func TestWriteLoadRoundTrip(t *testing.T) {
	d := piecewise(600, 0.1, 4)
	cfg := DefaultConfig()
	cfg.MinLeaf = 50
	tree, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.json")
	if err := tree.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if g, w := got.Predict(d.Row(i)), tree.Predict(d.Row(i)); g != w {
			t.Fatalf("row %d predicts %v, want %v", i, g, w)
		}
	}
	again := filepath.Join(dir, "again.json")
	if err := got.WriteFile(again); err != nil {
		t.Fatal(err)
	}
	first, _ := os.ReadFile(path)
	second, _ := os.ReadFile(again)
	if string(first) != string(second) {
		t.Error("WriteFile -> ReadFile -> WriteFile is not byte-identical")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("non-JSON file: error %v, want one naming %s", err, path)
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/model.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestDecodeRejectsBinary: a file in the retired binary container
// format gets a one-line answer naming the fix, not a JSON syntax error.
func TestDecodeRejectsBinary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.bin")
	if err := os.WriteFile(path, []byte("M5MB\x01\x00\x01\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFile(path)
	if err == nil || !strings.Contains(err.Error(), "re-save as JSON") {
		t.Fatalf("binary file: error %v, want the re-save hint", err)
	}
}

func TestWriteErrors(t *testing.T) {
	d := piecewise(300, 0.1, 5)
	cfg := DefaultConfig()
	cfg.MinLeaf = 50
	tree, err := Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteFile("/nonexistent/dir/model.json"); err == nil {
		t.Error("uncreatable path accepted")
	}
}
