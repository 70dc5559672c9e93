package mtree

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

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
	t := &Tree{
		Config:     tj.Config,
		TargetName: tj.TargetName,
		AttrNames:  tj.AttrNames,
		TrainN:     tj.TrainN,
		GlobalSD:   tj.GlobalSD,
		Machine:    tj.Machine,
		Root:       fromNodeJSON(tj.Root),
	}
	if err := t.check(); err != nil {
		return nil, fmt.Errorf("mtree: decoded tree: %w", err)
	}
	return t, nil
}

// ReadFile loads a tree saved by WriteFile (or cmd/train -out). A file
// in the retired binary container format (magic "M5MB") gets a one-line
// answer instead of a JSON syntax error.
func ReadFile(path string) (*Tree, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mtree: %w", err)
	}
	if bytes.HasPrefix(data, []byte("M5MB")) {
		return nil, fmt.Errorf("mtree: loading %s: binary model files are no longer supported; re-save as JSON", path)
	}
	t, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("mtree: loading %s: %w", path, err)
	}
	return t, nil
}

// WriteFile saves the tree to path as JSON.
func (t *Tree) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mtree: %w", err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("mtree: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mtree: writing %s: %w", path, err)
	}
	return nil
}

// check is the load-time validation of a tree's node graph, shared by
// ReadJSON, Compile and CompileModel, so neither a decoded file nor a
// tree assembled outside Build can yield a tree whose evaluation reads
// outside a row or pairs the wrong model terms. One preorder walk
// requires every node to carry a linear model whose attrs and coefs
// pair up, every interior node to have two children and a split
// attribute, and every split and model attribute to index a schema
// column that fits the kernel's int32 indices. A tree that passes
// evaluates any row of its width without panicking. Node and model-term
// numbers in its errors count in preorder, the kernel's layout.
func (t *Tree) check() error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("tree has no root")
	}
	width := len(t.AttrNames)
	nodes, terms := 0, 0
	var walk func(n *Node) error
	walk = func(n *Node) error {
		i := nodes
		nodes++
		if (n.Left == nil) != (n.Right == nil) {
			return fmt.Errorf("node with split_attr %d has one child; want zero or two", n.SplitAttr)
		}
		if int(int32(n.SplitAttr)) != n.SplitAttr {
			return fmt.Errorf("split_attr %d out of range", n.SplitAttr)
		}
		m := n.Model
		if m == nil {
			return fmt.Errorf("node %d has no linear model", i)
		}
		if len(m.Attrs) != len(m.Coefs) {
			return fmt.Errorf("node model has %d attrs but %d coefs", len(m.Attrs), len(m.Coefs))
		}
		for _, a := range m.Attrs {
			if int(int32(a)) != a {
				return fmt.Errorf("node model attr %d out of range", a)
			}
			if a < 0 || a >= width {
				return fmt.Errorf("model term %d reads attribute %d outside the %d-column schema", terms, a, width)
			}
			terms++
		}
		if n.IsLeaf() {
			return nil
		}
		if n.SplitAttr < 0 {
			return fmt.Errorf("leaf node %d has child links", i)
		}
		if n.SplitAttr >= width {
			return fmt.Errorf("node %d splits on attribute %d outside the %d-column schema", i, n.SplitAttr, width)
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	return walk(t.Root)
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

// fromNodeJSON rebuilds the node graph; ReadJSON checks its shape.
func fromNodeJSON(nj *nodeJSON) *Node {
	if nj == nil {
		return nil
	}
	n := &Node{
		SplitAttr: nj.SplitAttr,
		Threshold: nj.Threshold,
		N:         nj.N,
		SD:        nj.SD,
		Mean:      nj.Mean,
		LeafID:    nj.LeafID,
		Left:      fromNodeJSON(nj.Left),
		Right:     fromNodeJSON(nj.Right),
	}
	if nj.Model != nil {
		n.Model = &linreg.Model{
			Intercept: nj.Model.Intercept,
			Attrs:     nj.Model.Attrs,
			Coefs:     nj.Model.Coefs,
			Names:     nj.Model.Names,
		}
	}
	return n
}
