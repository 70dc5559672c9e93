package mtree

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/binfmt"
)

// Binary persistence for trees: the flat CompiledTree arrays written as
// raw little-endian sections behind the binfmt container. Loading is
// one read plus direct slice construction — on a little-endian host the
// numeric sections alias the file buffer — so a serve replica brings up
// a large registry in milliseconds instead of re-parsing JSON node
// graphs. JSON stays the interoperable format; binary is the serving
// fast path. Both round-trip to the same tree: WriteBinary followed by
// ReadBinary followed by Tree().WriteJSON reproduces WriteJSON's bytes.

// Binary section ids of the tree payload (container kind
// binfmt.KindTree). Values are part of the on-disk format; never reuse
// or renumber, only append.
const (
	secTreeMeta    = 1  // JSON metadata (config, schema, shape)
	secSplitAttr   = 2  // int32 per node, -1 for leaves
	secThreshold   = 3  // float64 per node
	secLeft        = 4  // int32 per node
	secRight       = 5  // int32 per node
	secNodeN       = 6  // int64 per node
	secSD          = 7  // float64 per node
	secMean        = 8  // float64 per node
	secLeafID      = 9  // int32 per node
	secLMOff       = 10 // int32 per node + 1 (row-major prefix offsets)
	secLMIntercept = 11 // float64 per node
	secLMAttrs     = 12 // int32 per coefficient
	secLMCoefs     = 13 // float64 per coefficient
	secHasLM       = 14 // uint8 per node
	secLMNames     = 15 // packed strings (see names codec below)
)

// treeBinMeta is the JSON metadata section — everything that is not a
// bulk numeric array.
type treeBinMeta struct {
	SchemaVersion int      `json:"schema_version"`
	Config        Config   `json:"config"`
	TargetName    string   `json:"target"`
	AttrNames     []string `json:"attrs"`
	TrainN        int      `json:"train_n"`
	GlobalSD      float64  `json:"global_sd"`
	Machine       string   `json:"machine,omitempty"`
	Nodes         int      `json:"nodes"`
}

// WriteBinary persists the compiled tree in the binary model format.
func (c *CompiledTree) WriteBinary(w io.Writer) error {
	bw := binfmt.NewWriter(binfmt.KindTree)
	if err := c.addSections(bw); err != nil {
		return err
	}
	if _, err := bw.WriteTo(w); err != nil {
		return fmt.Errorf("mtree: writing binary tree: %w", err)
	}
	return nil
}

// addSections registers the tree's sections on a container writer;
// shared with the ensemble writer, which nests tree containers.
func (c *CompiledTree) addSections(bw *binfmt.Writer) error {
	meta, err := json.Marshal(treeBinMeta{
		SchemaVersion: SchemaVersion,
		Config:        c.config,
		TargetName:    c.targetName,
		AttrNames:     c.attrNames,
		TrainN:        c.trainN,
		GlobalSD:      c.globalSD,
		Machine:       c.machine,
		Nodes:         len(c.splitAttr),
	})
	if err != nil {
		return fmt.Errorf("mtree: encoding binary tree metadata: %w", err)
	}
	bw.Bytes(secTreeMeta, meta)
	bw.I32(secSplitAttr, c.splitAttr)
	bw.F64(secThreshold, c.threshold)
	bw.I32(secLeft, c.left)
	bw.I32(secRight, c.right)
	bw.I64(secNodeN, c.nodeN)
	bw.F64(secSD, c.sd)
	bw.F64(secMean, c.mean)
	bw.I32(secLeafID, c.leafID)
	bw.I32(secLMOff, c.lmOff)
	bw.F64(secLMIntercept, c.lmIntercept)
	bw.I32(secLMAttrs, c.lmAttrs)
	bw.F64(secLMCoefs, c.lmCoefs)
	bw.Bytes(secHasLM, c.hasLM)
	bw.Bytes(secLMNames, encodeNames(c.lmNames))
	return nil
}

// WriteBinary persists the tree in the binary model format by compiling
// it first; cmd/train's -format binary runs through here.
func (t *Tree) WriteBinary(w io.Writer) error {
	c := Compile(t)
	if c == nil {
		return fmt.Errorf("mtree: cannot persist a tree with no root")
	}
	return c.WriteBinary(w)
}

// ReadBinary loads a binary tree file into its compiled form directly —
// no pointer nodes are materialized. Corrupt and truncated files are
// rejected with the failing section and offset in the error.
func ReadBinary(data []byte) (*CompiledTree, error) {
	f, err := binfmt.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("mtree: binary tree: %w", err)
	}
	return ReadBinaryFile(f)
}

// ReadBinaryFile loads a tree from an already-parsed container (the
// path internal/modelio and the ensemble loader use).
func ReadBinaryFile(f *binfmt.File) (*CompiledTree, error) {
	if f.Kind != binfmt.KindTree {
		return nil, fmt.Errorf("mtree: binary file has kind %d, want tree (%d)", f.Kind, binfmt.KindTree)
	}
	fail := func(err error) (*CompiledTree, error) {
		return nil, fmt.Errorf("mtree: binary tree: %w", err)
	}
	metaRaw, err := f.Bytes(secTreeMeta, "meta")
	if err != nil {
		return fail(err)
	}
	var meta treeBinMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("mtree: binary tree: malformed meta section: %w", err)
	}
	if meta.SchemaVersion < 0 || meta.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("mtree: binary tree has schema_version %d; this build reads versions 0..%d",
			meta.SchemaVersion, SchemaVersion)
	}
	if meta.Nodes < 1 {
		return nil, fmt.Errorf("mtree: binary tree declares %d nodes; need at least a root", meta.Nodes)
	}

	c := &CompiledTree{
		config:     meta.Config,
		targetName: meta.TargetName,
		attrNames:  meta.AttrNames,
		trainN:     meta.TrainN,
		globalSD:   meta.GlobalSD,
		machine:    meta.Machine,
	}
	type i32Sec struct {
		dst  *[]int32
		id   uint32
		name string
	}
	for _, s := range []i32Sec{
		{&c.splitAttr, secSplitAttr, "split_attr"},
		{&c.left, secLeft, "left"},
		{&c.right, secRight, "right"},
		{&c.leafID, secLeafID, "leaf_id"},
		{&c.lmOff, secLMOff, "lm_off"},
		{&c.lmAttrs, secLMAttrs, "lm_attrs"},
	} {
		if *s.dst, err = f.I32(s.id, s.name); err != nil {
			return fail(err)
		}
	}
	type f64Sec struct {
		dst  *[]float64
		id   uint32
		name string
	}
	for _, s := range []f64Sec{
		{&c.threshold, secThreshold, "threshold"},
		{&c.sd, secSD, "sd"},
		{&c.mean, secMean, "mean"},
		{&c.lmIntercept, secLMIntercept, "lm_intercept"},
		{&c.lmCoefs, secLMCoefs, "lm_coefs"},
	} {
		if *s.dst, err = f.F64(s.id, s.name); err != nil {
			return fail(err)
		}
	}
	if c.nodeN, err = f.I64(secNodeN, "node_n"); err != nil {
		return fail(err)
	}
	if c.hasLM, err = f.U8(secHasLM, "has_lm"); err != nil {
		return fail(err)
	}
	// Cross-check the declared node count against real section data
	// before it sizes any allocation — a corrupt meta section must not be
	// able to demand a gigantic names table.
	if len(c.splitAttr) != meta.Nodes {
		return nil, fmt.Errorf("mtree: binary tree: section split_attr has %d entries, meta declares %d nodes",
			len(c.splitAttr), meta.Nodes)
	}
	namesRaw, err := f.Bytes(secLMNames, "lm_names")
	if err != nil {
		return fail(err)
	}
	if c.lmNames, err = decodeNames(namesRaw, meta.Nodes); err != nil {
		return fail(err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("mtree: binary tree: %w", err)
	}
	c.numLeaves, c.depth = c.scanShape()
	c.buildWalk()
	return c, nil
}

// validate cross-checks the flat arrays so a corrupt file cannot produce
// a tree whose evaluation walks out of bounds or loops forever. It is
// the one validator for both formats: ReadBinaryFile runs it on the
// loaded sections and ReadJSON on the compiled decoded tree. Beyond
// section shape it requires every node to carry a linear model and
// every split and model attribute to index a schema column, so any
// accepted tree evaluates a row of its width.
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
			return fmt.Errorf("section %s has %d entries, split_attr has %d nodes", a.name, a.len, nodes)
		}
	}
	if len(c.lmOff) != nodes+1 {
		return fmt.Errorf("section lm_off has %d entries, want nodes+1 = %d", len(c.lmOff), nodes+1)
	}
	if len(c.lmAttrs) != len(c.lmCoefs) {
		return fmt.Errorf("sections lm_attrs (%d) and lm_coefs (%d) disagree", len(c.lmAttrs), len(c.lmCoefs))
	}
	if c.lmOff[0] != 0 {
		return fmt.Errorf("section lm_off starts at %d, want 0", c.lmOff[0])
	}
	for i := 0; i < nodes; i++ {
		if c.lmOff[i+1] < c.lmOff[i] {
			return fmt.Errorf("section lm_off decreases at node %d (%d -> %d)", i, c.lmOff[i], c.lmOff[i+1])
		}
	}
	if int(c.lmOff[nodes]) != len(c.lmCoefs) {
		return fmt.Errorf("section lm_off ends at %d, lm_coefs has %d entries", c.lmOff[nodes], len(c.lmCoefs))
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

// The names codec packs the per-node coefficient-name lists into one
// byte section: for each node, a uint32 name count followed by
// length-prefixed UTF-8 names. Nodes without names contribute a zero
// count, so the section length is 4*nodes plus the string bytes.

func encodeNames(names [][]string) []byte {
	n := 0
	for _, ns := range names {
		n += 4
		for _, s := range ns {
			n += 4 + len(s)
		}
	}
	out := make([]byte, 0, n)
	var u [4]byte
	for _, ns := range names {
		binary.LittleEndian.PutUint32(u[:], uint32(len(ns)))
		out = append(out, u[:]...)
		for _, s := range ns {
			binary.LittleEndian.PutUint32(u[:], uint32(len(s)))
			out = append(out, u[:]...)
			out = append(out, s...)
		}
	}
	return out
}

// maxNameLen bounds one coefficient name before its length is trusted,
// so a corrupt count cannot provoke a huge allocation.
const maxNameLen = 1 << 20

func decodeNames(b []byte, nodes int) ([][]string, error) {
	out := make([][]string, nodes)
	off := 0
	for i := 0; i < nodes; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("names section truncated at byte %d (node %d count)", off, i)
		}
		count := binary.LittleEndian.Uint32(b[off:])
		off += 4
		if count == 0 {
			continue
		}
		if count > uint32(len(b)) {
			return nil, fmt.Errorf("names section: node %d declares %d names, section has %d bytes", i, count, len(b))
		}
		ns := make([]string, count)
		for j := range ns {
			if off+4 > len(b) {
				return nil, fmt.Errorf("names section truncated at byte %d (node %d name %d length)", off, i, j)
			}
			l := binary.LittleEndian.Uint32(b[off:])
			off += 4
			if l > maxNameLen || off+int(l) > len(b) {
				return nil, fmt.Errorf("names section: node %d name %d claims %d bytes at offset %d, section has %d",
					i, j, l, off, len(b))
			}
			ns[j] = string(b[off : off+int(l)])
			off += int(l)
		}
		out[i] = ns
	}
	if off != len(b) {
		return nil, fmt.Errorf("names section has %d trailing bytes after node %d", len(b)-off, nodes-1)
	}
	return out, nil
}
