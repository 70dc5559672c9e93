// Package modelio loads persisted models — single M5' trees or bagged
// ensembles — behind the shared model.Model interface. It is the one
// place that knows every concrete on-disk format; callers (cmd/analyze,
// cmd/serve, the registry) just ask for "the model in this file".
//
// Two formats exist. Binary files (see internal/binfmt) start with the
// "M5MB" magic and load directly into the compiled flat-array
// evaluators; they are the serving fast path. JSON files are sniffed
// from the "kind" discriminator: ensemble files declare kind
// "bagged-m5"; anything else is treated as a single-tree file (trees
// written before the discriminator existed carry no kind at all).
package modelio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/binfmt"
	"repro/internal/ensemble"
	"repro/internal/model"
	"repro/internal/mtree"
)

// Format names accepted by Write (and cmd/train's -format flag).
const (
	FormatJSON   = "json"
	FormatBinary = "binary"
)

// Load reads one persisted model from r, dispatching on the format.
// Binary files come back in compiled (flat-array) form; JSON files as
// the pointer-linked training structures.
func Load(r io.Reader) (model.Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("modelio: reading model: %w", err)
	}
	m, _, err := Decode(data)
	return m, err
}

// Decode parses one persisted model from its bytes and reports the
// format it was stored in (FormatJSON or FormatBinary).
func Decode(data []byte) (m model.Model, format string, err error) {
	if binfmt.Sniff(data) {
		m, err = loadBinary(data)
		return m, FormatBinary, err
	}
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, "", fmt.Errorf("modelio: not a JSON or binary model file: %w", err)
	}
	if probe.Kind == ensemble.Kind {
		m, err = ensemble.ReadJSON(bytes.NewReader(data))
	} else {
		m, err = mtree.ReadJSON(bytes.NewReader(data))
	}
	return m, FormatJSON, err
}

// loadBinary parses a binary container and dispatches on its payload
// kind, keeping the "which formats exist" knowledge in this package.
func loadBinary(data []byte) (model.Model, error) {
	f, err := binfmt.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	switch f.Kind {
	case binfmt.KindTree:
		t, err := mtree.ReadBinaryFile(f)
		if err != nil {
			return nil, fmt.Errorf("modelio: %w", err)
		}
		return t, nil
	case binfmt.KindEnsemble:
		b, err := ensemble.ReadBinaryFile(f)
		if err != nil {
			return nil, fmt.Errorf("modelio: %w", err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("modelio: binary model file has unknown payload kind %d", f.Kind)
	}
}

// LoadFile loads one persisted model from a file path.
func LoadFile(path string) (model.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("modelio: %w", err)
	}
	defer f.Close()
	m, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("modelio: loading %s: %w", path, err)
	}
	return m, nil
}

// binaryWriter is the surface every persistable model exposes for the
// binary format; trees, ensembles and their compiled forms all have it.
type binaryWriter interface {
	WriteBinary(w io.Writer) error
}

// jsonWriter is the JSON analogue. Compiled forms don't implement it
// directly — Write bridges them back through Tree()/Bagger().
type jsonWriter interface {
	WriteJSON(w io.Writer) error
}

// Write persists a model in the named format (FormatJSON or
// FormatBinary). Compiled models are written natively in binary and
// decompiled first for JSON, so either format accepts any model the
// loaders can produce.
func Write(w io.Writer, m model.Model, format string) error {
	switch format {
	case FormatJSON:
		jm := m
		switch c := m.(type) {
		case *mtree.CompiledTree:
			jm = c.Tree()
		case *ensemble.CompiledBagger:
			jm = c.Bagger()
		}
		jw, ok := jm.(jsonWriter)
		if !ok {
			return fmt.Errorf("modelio: model kind %q does not support JSON persistence", m.Describe().Kind)
		}
		return jw.WriteJSON(w)
	case FormatBinary:
		bw, ok := m.(binaryWriter)
		if !ok {
			return fmt.Errorf("modelio: model kind %q does not support binary persistence", m.Describe().Kind)
		}
		return bw.WriteBinary(w)
	default:
		return fmt.Errorf("modelio: unknown model format %q (want %q or %q)", format, FormatJSON, FormatBinary)
	}
}

// WriteFile persists a model to a file path in the named format.
func WriteFile(path string, m model.Model, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("modelio: %w", err)
	}
	if err := Write(f, m, format); err != nil {
		f.Close()
		return fmt.Errorf("modelio: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("modelio: writing %s: %w", path, err)
	}
	return nil
}
