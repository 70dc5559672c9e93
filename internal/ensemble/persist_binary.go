package ensemble

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/binfmt"
	"repro/internal/mtree"
)

// Binary persistence for ensembles mirrors the JSON layout: an envelope
// (out-of-bag statistics plus member count) and one complete binary
// tree file per member, nested as raw sections. Because nested tree
// containers keep their 8-byte internal alignment and the outer
// container places sections at 8-aligned offsets, member payloads alias
// the file buffer exactly like standalone tree files do — loading an
// N-member ensemble is one read plus N header parses.

// Binary section ids of the ensemble payload (container kind
// binfmt.KindEnsemble). Member trees occupy ids secMemberBase+i.
const (
	secEnsembleMeta = 1
	secMemberBase   = 16
)

type ensembleBinMeta struct {
	SchemaVersion int     `json:"schema_version"`
	OOBError      float64 `json:"oob_error"`
	OOBCoverage   float64 `json:"oob_coverage"`
	Trees         int     `json:"trees"`
}

// WriteBinary persists the compiled ensemble in the binary model format.
func (c *CompiledBagger) WriteBinary(w io.Writer) error {
	bw := binfmt.NewWriter(binfmt.KindEnsemble)
	meta, err := json.Marshal(ensembleBinMeta{
		SchemaVersion: SchemaVersion,
		OOBError:      c.oobError,
		OOBCoverage:   c.oobCoverage,
		Trees:         len(c.trees),
	})
	if err != nil {
		return fmt.Errorf("ensemble: encoding binary ensemble metadata: %w", err)
	}
	bw.Bytes(secEnsembleMeta, meta)
	for i, t := range c.trees {
		var buf bytes.Buffer
		if err := t.WriteBinary(&buf); err != nil {
			return fmt.Errorf("ensemble: encoding binary member %d: %w", i, err)
		}
		bw.Bytes(secMemberBase+uint32(i), buf.Bytes())
	}
	if _, err := bw.WriteTo(w); err != nil {
		return fmt.Errorf("ensemble: writing binary ensemble: %w", err)
	}
	return nil
}

// WriteBinary persists the ensemble in the binary model format by
// compiling the members first.
func (b *Bagger) WriteBinary(w io.Writer) error {
	if len(b.Trees) == 0 {
		return fmt.Errorf("ensemble: cannot persist an ensemble with no member trees")
	}
	return CompileBagger(b).WriteBinary(w)
}

// ReadBinary loads a binary ensemble file directly into compiled form.
func ReadBinary(data []byte) (*CompiledBagger, error) {
	f, err := binfmt.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("ensemble: binary ensemble: %w", err)
	}
	return ReadBinaryFile(f)
}

// ReadBinaryFile loads an ensemble from an already-parsed container.
func ReadBinaryFile(f *binfmt.File) (*CompiledBagger, error) {
	if f.Kind != binfmt.KindEnsemble {
		return nil, fmt.Errorf("ensemble: binary file has kind %d, want ensemble (%d)", f.Kind, binfmt.KindEnsemble)
	}
	metaRaw, err := f.Bytes(secEnsembleMeta, "meta")
	if err != nil {
		return nil, fmt.Errorf("ensemble: binary ensemble: %w", err)
	}
	var meta ensembleBinMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("ensemble: binary ensemble: malformed meta section: %w", err)
	}
	if meta.SchemaVersion < 1 || meta.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("ensemble: binary ensemble has schema_version %d; this build reads versions 1..%d",
			meta.SchemaVersion, SchemaVersion)
	}
	if meta.Trees < 1 {
		return nil, fmt.Errorf("ensemble: binary ensemble declares %d member trees; need at least one", meta.Trees)
	}
	// Every member occupies a section, so the section count bounds the
	// member count; checking first keeps a corrupt meta section from
	// sizing a gigantic allocation.
	if meta.Trees > f.Sections() {
		return nil, fmt.Errorf("ensemble: binary ensemble declares %d member trees but the file has only %d sections",
			meta.Trees, f.Sections())
	}
	c := &CompiledBagger{
		trees:       make([]*mtree.CompiledTree, meta.Trees),
		oobError:    meta.OOBError,
		oobCoverage: meta.OOBCoverage,
	}
	for i := range c.trees {
		blob, err := f.Bytes(secMemberBase+uint32(i), fmt.Sprintf("member %d", i))
		if err != nil {
			return nil, fmt.Errorf("ensemble: binary ensemble: %w", err)
		}
		t, err := mtree.ReadBinary(blob)
		if err != nil {
			return nil, fmt.Errorf("ensemble: binary ensemble: member %d: %w", i, err)
		}
		c.trees[i] = t
	}
	if err := sameSchema(c.trees); err != nil {
		return nil, err
	}
	return c, nil
}
