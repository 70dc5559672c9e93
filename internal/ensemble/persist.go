package ensemble

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"repro/internal/model"
	"repro/internal/mtree"
)

// Persistence for bagged ensembles: a versioned JSON envelope holding the
// member trees in mtree's own persisted format, so a saved ensemble is
// just a list of saved trees plus the out-of-bag statistics. The "kind"
// discriminator lets loaders (internal/modelio) tell ensemble files from
// single-tree files without guessing.

// SchemaVersion is the current persisted-ensemble format version.
const SchemaVersion = 1

// Kind is the format discriminator written into every ensemble file.
const Kind = "bagged-m5"

type baggerJSON struct {
	SchemaVersion int               `json:"schema_version"`
	Kind          string            `json:"kind"`
	OOBError      float64           `json:"oob_error"`
	OOBCoverage   float64           `json:"oob_coverage"`
	Trees         []json.RawMessage `json:"trees"`
}

// WriteJSON serializes the ensemble.
func (b *Bagger) WriteJSON(w io.Writer) error {
	bj := baggerJSON{
		SchemaVersion: SchemaVersion,
		Kind:          Kind,
		OOBError:      b.OOBError,
		OOBCoverage:   b.OOBCoverage,
		Trees:         make([]json.RawMessage, len(b.Trees)),
	}
	for i, t := range b.Trees {
		var buf bytes.Buffer
		if err := t.WriteJSON(&buf); err != nil {
			return fmt.Errorf("ensemble: encoding member %d: %w", i, err)
		}
		bj.Trees[i] = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bj); err != nil {
		return fmt.Errorf("ensemble: encoding ensemble: %w", err)
	}
	return nil
}

// ReadJSON deserializes an ensemble written by WriteJSON.
func ReadJSON(r io.Reader) (*Bagger, error) {
	var bj baggerJSON
	if err := json.NewDecoder(r).Decode(&bj); err != nil {
		return nil, fmt.Errorf("ensemble: decoding ensemble: %w", err)
	}
	if bj.Kind != Kind {
		return nil, fmt.Errorf("ensemble: file kind %q, want %q", bj.Kind, Kind)
	}
	if bj.SchemaVersion < 1 || bj.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("ensemble: persisted ensemble has schema_version %d; this build reads versions 1..%d",
			bj.SchemaVersion, SchemaVersion)
	}
	if len(bj.Trees) == 0 {
		return nil, fmt.Errorf("ensemble: decoded ensemble has no member trees")
	}
	b := &Bagger{OOBError: bj.OOBError, OOBCoverage: bj.OOBCoverage}
	for i, raw := range bj.Trees {
		t, err := mtree.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("ensemble: decoding member %d: %w", i, err)
		}
		b.Trees = append(b.Trees, t)
	}
	if err := sameSchema(b.Trees); err != nil {
		return nil, err
	}
	return b, nil
}

// sameSchema requires every member to share member 0's target and
// attribute columns: the ensemble evaluates one row against all of
// them, so a wider member would read past the row.
func sameSchema[T model.Model](members []T) error {
	want := members[0].Describe()
	for i, m := range members[1:] {
		d := m.Describe()
		if d.Target != want.Target || !slices.Equal(d.AttrNames, want.AttrNames) {
			return fmt.Errorf("ensemble: member %d schema (target %q, attrs %v) differs from member 0's (target %q, attrs %v)",
				i+1, d.Target, d.AttrNames, want.Target, want.AttrNames)
		}
	}
	return nil
}
