// Package modelio loads persisted models — single M5' trees or bagged
// ensembles — behind the shared model.Model interface. It is the one
// place that knows every concrete model kind; callers (cmd/analyze,
// cmd/serve, the registry) just ask for "the model in this file".
//
// Models are persisted as JSON, sniffed from the "kind" discriminator:
// ensemble files declare kind "bagged-m5"; anything else is treated as
// a single-tree file (trees written before the discriminator existed
// carry no kind at all). Loaded models come back as the pointer-linked
// training structures; the serving registry compiles them into
// prediction kernels that keep the loaded model as their source.
package modelio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/ensemble"
	"repro/internal/model"
	"repro/internal/mtree"
)

// Load reads one persisted model from r.
func Load(r io.Reader) (model.Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("modelio: reading model: %w", err)
	}
	return Decode(data)
}

// Decode parses one persisted model from its bytes. A file in the
// retired binary container format (magic "M5MB") gets a one-line answer
// instead of a JSON syntax error.
func Decode(data []byte) (model.Model, error) {
	if bytes.HasPrefix(data, []byte("M5MB")) {
		return nil, errors.New("modelio: binary model files are no longer supported; re-save as JSON")
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("modelio: not a JSON model file: %w", err)
	}
	if probe.Kind == ensemble.Kind {
		b, err := ensemble.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return b, nil
	}
	t, err := mtree.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return t, nil
}

// LoadFile loads one persisted model from a file path.
func LoadFile(path string) (model.Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	m, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("modelio: loading %s: %w", path, err)
	}
	return m, nil
}

// jsonWriter is the persistence surface of the pointer-linked tree and
// ensemble.
type jsonWriter interface {
	WriteJSON(w io.Writer) error
}

// Write persists a model as JSON.
func Write(w io.Writer, m model.Model) error {
	jw, ok := m.(jsonWriter)
	if !ok {
		return fmt.Errorf("modelio: model kind %q (%T) has no persisted form", m.Describe().Kind, m)
	}
	return jw.WriteJSON(w)
}

// WriteFile persists a model to a file path as JSON.
func WriteFile(path string, m model.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return fmt.Errorf("modelio: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("modelio: writing %s: %w", path, err)
	}
	return nil
}
