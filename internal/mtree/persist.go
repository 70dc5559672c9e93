package mtree

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/linreg"
)

// The JSON persistence layer lets cmd/train save a tree that cmd/analyze
// and cmd/serve load later, mirroring the paper's train-once /
// analyze-many workflow.

// SchemaVersion is the current persisted-tree format version. Files
// written before versioning was introduced carry no schema_version field
// and decode as version 0, which remains readable; files from a future
// format are rejected with a clear error instead of being misparsed.
const SchemaVersion = 1

type treeJSON struct {
	SchemaVersion int       `json:"schema_version"`
	Config        Config    `json:"config"`
	TargetName    string    `json:"target"`
	AttrNames     []string  `json:"attrs"`
	TrainN        int       `json:"train_n"`
	GlobalSD      float64   `json:"global_sd"`
	Machine       string    `json:"machine,omitempty"`
	Root          *nodeJSON `json:"root"`
}

type nodeJSON struct {
	SplitAttr int        `json:"split_attr"`
	Threshold float64    `json:"threshold,omitempty"`
	Left      *nodeJSON  `json:"left,omitempty"`
	Right     *nodeJSON  `json:"right,omitempty"`
	Model     *modelJSON `json:"model"`
	N         int        `json:"n"`
	SD        float64    `json:"sd"`
	Mean      float64    `json:"mean"`
	LeafID    int        `json:"leaf_id,omitempty"`
}

type modelJSON struct {
	Intercept float64   `json:"intercept"`
	Attrs     []int     `json:"attrs,omitempty"`
	Coefs     []float64 `json:"coefs,omitempty"`
	Names     []string  `json:"names,omitempty"`
}

// WriteJSON serializes the tree.
func (t *Tree) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(toTreeJSON(t)); err != nil {
		return fmt.Errorf("mtree: encoding tree: %w", err)
	}
	return nil
}

// ReadJSON deserializes a tree written by WriteJSON.
func ReadJSON(r io.Reader) (*Tree, error) {
	var tj treeJSON
	if err := json.NewDecoder(r).Decode(&tj); err != nil {
		return nil, fmt.Errorf("mtree: decoding tree: %w", err)
	}
	// Version 0 is the pre-versioning format (no schema_version field);
	// its payload is identical, so it stays loadable forever.
	if tj.SchemaVersion < 0 || tj.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("mtree: persisted tree has schema_version %d; this build reads versions 0..%d",
			tj.SchemaVersion, SchemaVersion)
	}
	if tj.Root == nil {
		return nil, fmt.Errorf("mtree: decoded tree has no root")
	}
	root, err := fromNodeJSON(tj.Root)
	if err != nil {
		return nil, fmt.Errorf("mtree: decoded tree: %w", err)
	}
	t := &Tree{
		Config:     tj.Config,
		TargetName: tj.TargetName,
		AttrNames:  tj.AttrNames,
		TrainN:     tj.TrainN,
		GlobalSD:   tj.GlobalSD,
		Machine:    tj.Machine,
		Root:       root,
	}
	// The binary loader's validator, run on the compiled form: a tree
	// that passes evaluates any row of its width without panicking.
	if err := Compile(t).validate(); err != nil {
		return nil, fmt.Errorf("mtree: decoded tree: %w", err)
	}
	return t, nil
}

func toTreeJSON(t *Tree) *treeJSON {
	return &treeJSON{
		SchemaVersion: SchemaVersion,
		Config:        t.Config,
		TargetName:    t.TargetName,
		AttrNames:     t.AttrNames,
		TrainN:        t.TrainN,
		GlobalSD:      t.GlobalSD,
		Machine:       t.Machine,
		Root:          toNodeJSON(t.Root),
	}
}

func toNodeJSON(n *Node) *nodeJSON {
	if n == nil {
		return nil
	}
	nj := &nodeJSON{
		SplitAttr: n.SplitAttr,
		Threshold: n.Threshold,
		N:         n.N,
		SD:        n.SD,
		Mean:      n.Mean,
		LeafID:    n.LeafID,
		Left:      toNodeJSON(n.Left),
		Right:     toNodeJSON(n.Right),
	}
	if n.Model != nil {
		nj.Model = &modelJSON{
			Intercept: n.Model.Intercept,
			Attrs:     n.Model.Attrs,
			Coefs:     n.Model.Coefs,
			Names:     n.Model.Names,
		}
	}
	return nj
}

// fromNodeJSON rebuilds the node graph, rejecting the shapes only JSON
// can express and the compiled form cannot: a node with a single child,
// a model whose attrs and coefs arrays differ in length, and an index
// too large for int32. The shared validator runs on the compiled form,
// so it cannot see them.
func fromNodeJSON(nj *nodeJSON) (*Node, error) {
	if nj == nil {
		return nil, nil
	}
	if (nj.Left == nil) != (nj.Right == nil) {
		return nil, fmt.Errorf("node with split_attr %d has one child; want zero or two", nj.SplitAttr)
	}
	if int(int32(nj.SplitAttr)) != nj.SplitAttr {
		return nil, fmt.Errorf("split_attr %d out of range", nj.SplitAttr)
	}
	n := &Node{
		SplitAttr: nj.SplitAttr,
		Threshold: nj.Threshold,
		N:         nj.N,
		SD:        nj.SD,
		Mean:      nj.Mean,
		LeafID:    nj.LeafID,
	}
	var err error
	if n.Left, err = fromNodeJSON(nj.Left); err != nil {
		return nil, err
	}
	if n.Right, err = fromNodeJSON(nj.Right); err != nil {
		return nil, err
	}
	if nj.Model != nil {
		if len(nj.Model.Attrs) != len(nj.Model.Coefs) {
			return nil, fmt.Errorf("node model has %d attrs but %d coefs", len(nj.Model.Attrs), len(nj.Model.Coefs))
		}
		for _, a := range nj.Model.Attrs {
			if int(int32(a)) != a {
				return nil, fmt.Errorf("node model attr %d out of range", a)
			}
		}
		n.Model = &linreg.Model{
			Intercept: nj.Model.Intercept,
			Attrs:     nj.Model.Attrs,
			Coefs:     nj.Model.Coefs,
			Names:     nj.Model.Names,
		}
	}
	return n, nil
}
