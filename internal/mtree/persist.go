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
	t := &Tree{
		Config:     tj.Config,
		TargetName: tj.TargetName,
		AttrNames:  tj.AttrNames,
		TrainN:     tj.TrainN,
		GlobalSD:   tj.GlobalSD,
		Machine:    tj.Machine,
		Root:       fromNodeJSON(tj.Root),
	}
	if _, err := t.compileChecked(); err != nil {
		return nil, fmt.Errorf("mtree: decoded tree: %w", err)
	}
	return t, nil
}

// compileChecked flattens t and runs the checks ReadJSON runs on a
// decoded file: the node shapes first (the flat arrays cannot express a
// bad one), then validate on the compiled form. A tree that passes
// evaluates any row of its width without panicking.
func (t *Tree) compileChecked() (*CompiledTree, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("tree has no root")
	}
	if err := checkShape(t.Root); err != nil {
		return nil, err
	}
	c := compile(t)
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// validate cross-checks the flat arrays of a compiled tree, so neither a
// decoded file nor a tree assembled outside Build can produce a tree
// whose evaluation walks out of bounds or loops forever. Beyond
// array shape it requires every node to carry a linear model and every
// split and model attribute to index a schema column, so any accepted
// tree evaluates a row of its width.
func (c *CompiledTree) validate() error {
	nodes := len(c.splitAttr)
	if nodes == 0 {
		return fmt.Errorf("tree has no nodes")
	}
	type arr struct {
		name string
		len  int
	}
	for _, a := range []arr{
		{"threshold", len(c.threshold)},
		{"left", len(c.left)}, {"right", len(c.right)},
		{"node_n", len(c.nodeN)}, {"sd", len(c.sd)}, {"mean", len(c.mean)},
		{"leaf_id", len(c.leafID)}, {"lm_intercept", len(c.lmIntercept)},
		{"has_lm", len(c.hasLM)},
	} {
		if a.len != nodes {
			return fmt.Errorf("array %s has %d entries, split_attr has %d nodes", a.name, a.len, nodes)
		}
	}
	if len(c.lmOff) != nodes+1 {
		return fmt.Errorf("array lm_off has %d entries, want nodes+1 = %d", len(c.lmOff), nodes+1)
	}
	if len(c.lmAttrs) != len(c.lmCoefs) {
		return fmt.Errorf("arrays lm_attrs (%d) and lm_coefs (%d) disagree", len(c.lmAttrs), len(c.lmCoefs))
	}
	if c.lmOff[0] != 0 {
		return fmt.Errorf("array lm_off starts at %d, want 0", c.lmOff[0])
	}
	for i := 0; i < nodes; i++ {
		if c.lmOff[i+1] < c.lmOff[i] {
			return fmt.Errorf("array lm_off decreases at node %d (%d -> %d)", i, c.lmOff[i], c.lmOff[i+1])
		}
	}
	if int(c.lmOff[nodes]) != len(c.lmCoefs) {
		return fmt.Errorf("array lm_off ends at %d, lm_coefs has %d entries", c.lmOff[nodes], len(c.lmCoefs))
	}
	width := int32(len(c.attrNames))
	for j, a := range c.lmAttrs {
		if a < 0 || a >= width {
			return fmt.Errorf("model term %d reads attribute %d outside the %d-column schema", j, a, width)
		}
	}
	for i := 0; i < nodes; i++ {
		if c.hasLM[i] == 0 {
			return fmt.Errorf("node %d has no linear model", i)
		}
		if c.splitAttr[i] < 0 {
			if c.left[i] != 0 || c.right[i] != 0 {
				return fmt.Errorf("leaf node %d has child links", i)
			}
			continue
		}
		if c.splitAttr[i] >= width {
			return fmt.Errorf("node %d splits on attribute %d outside the %d-column schema", i, c.splitAttr[i], width)
		}
		for _, ch := range [2]int32{c.left[i], c.right[i]} {
			// Children must follow their parent (preorder layout); the
			// strictly-increasing walk is what guarantees termination.
			if int(ch) <= i || int(ch) >= nodes {
				return fmt.Errorf("node %d: child index %d outside (parent, %d)", i, ch, nodes)
			}
		}
	}
	return nil
}

// checkShape rejects the node shapes the flat arrays cannot express,
// which validate cannot see once a tree is compiled: a node with a
// single child, a model whose attrs and coefs differ in length (the
// packed rows would pair the wrong terms), and an index too large for
// int32.
func checkShape(n *Node) error {
	if (n.Left == nil) != (n.Right == nil) {
		return fmt.Errorf("node with split_attr %d has one child; want zero or two", n.SplitAttr)
	}
	if int(int32(n.SplitAttr)) != n.SplitAttr {
		return fmt.Errorf("split_attr %d out of range", n.SplitAttr)
	}
	if m := n.Model; m != nil {
		if len(m.Attrs) != len(m.Coefs) {
			return fmt.Errorf("node model has %d attrs but %d coefs", len(m.Attrs), len(m.Coefs))
		}
		for _, a := range m.Attrs {
			if int(int32(a)) != a {
				return fmt.Errorf("node model attr %d out of range", a)
			}
		}
	}
	if n.IsLeaf() {
		return nil
	}
	if err := checkShape(n.Left); err != nil {
		return err
	}
	return checkShape(n.Right)
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
