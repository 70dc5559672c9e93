package mtree

import (
	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/model"
)

// CompiledTree is a trained tree flattened into contiguous arrays for
// branch-light, cache-friendly evaluation — the serving-side counterpart
// of the flat cache arrays in internal/sim/mem. Nodes are laid out in
// preorder: node 0 is the root and both children of any interior node
// have larger indices, so a root-to-leaf walk touches strictly
// increasing positions of a handful of slices instead of chasing heap
// pointers through scattered Node allocations. Per-node linear models
// are packed row-major into one coefficient arena (lmAttrs/lmCoefs,
// indexed through the lmOff prefix table), so evaluating the models
// along a smoothing path streams one contiguous region.
//
// A CompiledTree predicts bit-identically to the *Tree it was compiled
// from — same comparisons, same coefficient order, same smoothing
// arithmetic — which the differential property suite enforces. It
// implements model.Model (and Classify, so /v1/classify keeps working
// when the registry compiles on load) and adds the allocation-free
// batch kernel PredictInto that /v1/predict uses to amortize per-row
// overhead across a whole batch.
type CompiledTree struct {
	config     Config
	targetName string
	attrNames  []string
	trainN     int
	machine    string

	splitAttr []int32   // split column, -1 for leaves
	threshold []float64 // split point, 0 for leaves
	left      []int32   // child indices, 0 for leaves
	right     []int32
	nodeN     []int64 // training instances that reached the node
	sd        []float64
	mean      []float64
	leafID    []int32

	lmOff       []int32 // len(nodes)+1 prefix offsets into lmAttrs/lmCoefs
	lmIntercept []float64
	lmAttrs     []int32
	lmCoefs     []float64
	hasLM       []uint8    // 1 when the node carries a fitted model
	lmNames     [][]string // per-node coefficient names (nil when absent)

	// walk packs the four walk-critical fields into one 24-byte record
	// per node, so each descent step touches a single cache line instead
	// of four parallel arrays. Filled by Compile alongside the arrays
	// above.
	walk []walkNode

	numLeaves int
	depth     int // maximum root-to-leaf node count
}

// walkNode is the hot-path view of one node: threshold, split attribute
// (-1 for leaves) and child indices (child[0] left, child[1] right), 24
// bytes per record. Records are not cache-line aligned, so one may
// straddle two lines; the walk is a dependent load chain, and packing
// keeps each step to one record instead of four array reads.
type walkNode struct {
	thr   float64
	attr  int32
	child [2]int32
}

// CompiledTree serves through the same interface as the pointer tree.
var _ model.Model = (*CompiledTree)(nil)
var _ model.BatchPredictor = (*CompiledTree)(nil)

// compiledPathInline is the smoothing-path buffer kept on the stack; a
// tree deeper than this (never seen in practice — depth grows
// logarithmically in the training set) falls back to one heap path
// allocation per call.
const compiledPathInline = 64

// Compile flattens a trained tree. The result shares no state with t.
// Returns nil for a nil tree, a tree without a root, or a tree whose
// shape the flat arrays cannot express (see checkShape; Build never
// returns one, and ReadJSON rejects it).
func Compile(t *Tree) *CompiledTree {
	if t == nil || t.Root == nil || checkShape(t.Root) != nil {
		return nil
	}
	return compile(t)
}

// compile flattens a rooted tree that checkShape accepts.
func compile(t *Tree) *CompiledTree {
	nodes := countNodes(t.Root)
	c := &CompiledTree{
		config:      t.Config,
		targetName:  t.TargetName,
		attrNames:   append([]string(nil), t.AttrNames...),
		trainN:      t.TrainN,
		machine:     t.Machine,
		splitAttr:   make([]int32, nodes),
		threshold:   make([]float64, nodes),
		left:        make([]int32, nodes),
		right:       make([]int32, nodes),
		nodeN:       make([]int64, nodes),
		sd:          make([]float64, nodes),
		mean:        make([]float64, nodes),
		leafID:      make([]int32, nodes),
		lmOff:       make([]int32, nodes+1),
		lmIntercept: make([]float64, nodes),
		hasLM:       make([]uint8, nodes),
		lmNames:     make([][]string, nodes),
		walk:        make([]walkNode, nodes),
	}
	// Preorder assignment means coefficient rows are appended in node
	// index order, so the lmOff prefix table fills in the same pass.
	next := int32(0)
	var flatten func(n *Node, depth int) int32
	flatten = func(n *Node, depth int) int32 {
		i := next
		next++
		c.depth = max(c.depth, depth)
		c.lmOff[i] = int32(len(c.lmCoefs))
		c.splitAttr[i] = -1
		c.nodeN[i] = int64(n.N)
		c.sd[i] = n.SD
		c.mean[i] = n.Mean
		c.leafID[i] = int32(n.LeafID)
		if m := n.Model; m != nil {
			c.hasLM[i] = 1
			c.lmIntercept[i] = m.Intercept
			for _, a := range m.Attrs {
				c.lmAttrs = append(c.lmAttrs, int32(a))
			}
			c.lmCoefs = append(c.lmCoefs, m.Coefs...)
			if len(m.Names) > 0 {
				c.lmNames[i] = append([]string(nil), m.Names...)
			}
		}
		if n.IsLeaf() {
			c.numLeaves++
		} else {
			c.splitAttr[i] = int32(n.SplitAttr)
			c.threshold[i] = n.Threshold
			c.left[i] = flatten(n.Left, depth+1)
			c.right[i] = flatten(n.Right, depth+1)
		}
		c.walk[i] = walkNode{thr: c.threshold[i], attr: c.splitAttr[i], child: [2]int32{c.left[i], c.right[i]}}
		return i
	}
	flatten(t.Root, 1)
	c.lmOff[nodes] = int32(len(c.lmCoefs))
	return c
}

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// leafFor descends the packed walk records to the leaf index for a row
// — identical comparisons (<= goes left) to the pointer walk.
func (c *CompiledTree) leafFor(row dataset.Instance) int32 {
	w := c.walk
	n := int32(0)
	for {
		nd := &w[n]
		if nd.attr < 0 {
			return n
		}
		if row[nd.attr] <= nd.thr {
			n = nd.child[0]
		} else {
			n = nd.child[1]
		}
	}
}

// lmPredict evaluates node n's linear model: intercept plus the packed
// coefficient row, accumulated in the same order as linreg.Model.Predict
// so the result is bit-identical.
func (c *CompiledTree) lmPredict(n int32, row dataset.Instance) float64 {
	y := c.lmIntercept[n]
	attrs, coefs := c.lmAttrs, c.lmCoefs
	for j, end := c.lmOff[n], c.lmOff[n+1]; j < end; j++ {
		y += coefs[j] * row[attrs[j]]
	}
	return y
}

// Predict returns the compiled tree's estimate for one instance,
// bit-identical to Tree.Predict: the raw leaf model without smoothing,
// or the ancestor-blended value with it.
func (c *CompiledTree) Predict(row dataset.Instance) float64 {
	if !c.config.Smooth {
		return c.lmPredict(c.leafFor(row), row)
	}
	var pbuf [compiledPathInline]int32
	path := pbuf[:0]
	if c.depth > compiledPathInline {
		path = make([]int32, 0, c.depth)
	}
	return c.predictSmoothed(row, path)
}

// predictSmoothed walks to the leaf recording the path in the caller's
// scratch, then blends ancestor models bottom-up with the exact
// arithmetic of the pointer walk.
func (c *CompiledTree) predictSmoothed(row dataset.Instance, path []int32) float64 {
	w := c.walk
	n := int32(0)
	for {
		path = append(path, n)
		nd := &w[n]
		if nd.attr < 0 {
			break
		}
		if row[nd.attr] <= nd.thr {
			n = nd.child[0]
		} else {
			n = nd.child[1]
		}
	}
	return c.blendPath(row, path)
}

// blendPath evaluates the leaf model at the end of a recorded root-to-
// leaf path and smooths it bottom-up through the ancestors.
func (c *CompiledTree) blendPath(row dataset.Instance, path []int32) float64 {
	p := c.lmPredict(path[len(path)-1], row)
	k := c.config.SmoothingK
	// Ancestor models are open-coded (the same loop as lmPredict, same
	// accumulation order) to keep the running blend in a register across
	// the bottom-up sweep.
	nodeN := c.nodeN
	lmOff, intercept, attrs, coefs := c.lmOff, c.lmIntercept, c.lmAttrs, c.lmCoefs
	for i := len(path) - 2; i >= 0; i-- {
		node, below := path[i], path[i+1]
		y := intercept[node]
		for j, end := lmOff[node], lmOff[node+1]; j < end; j++ {
			y += coefs[j] * row[attrs[j]]
		}
		nb := float64(nodeN[below])
		p = (nb*p + k*y) / (nb + k)
	}
	return p
}

// batchInto is the shared per-row loop behind PredictInto (add=false)
// and AccumulateInto (add=true), running the same scalar walks as
// Predict with one smoothing-path scratch reused across the batch.
func (c *CompiledTree) batchInto(dst []float64, rows []dataset.Instance, add bool) {
	dst = dst[:len(rows)]
	var pbuf [compiledPathInline]int32
	path := pbuf[:0]
	if c.config.Smooth && c.depth > compiledPathInline {
		path = make([]int32, 0, c.depth)
	}
	for i, row := range rows {
		var p float64
		if c.config.Smooth {
			p = c.predictSmoothed(row, path)
		} else {
			p = c.lmPredict(c.leafFor(row), row)
		}
		if add {
			dst[i] += p
		} else {
			dst[i] = p
		}
	}
}

// PredictInto is the batch kernel: it fills dst[i] with the prediction
// for rows[i], allocation-free (walk indices and smoothing paths live
// on the stack) and bit-identical to calling Predict per row. dst must
// have at least len(rows) elements. This is what the /v1/predict batch
// endpoint runs.
func (c *CompiledTree) PredictInto(dst []float64, rows []dataset.Instance) {
	c.batchInto(dst, rows, false)
}

// AccumulateInto adds the prediction for rows[i] onto dst[i] — the
// tree-major primitive behind the compiled ensemble's batch kernel,
// which keeps one member's arrays hot in cache across the whole batch
// instead of touching every member per row.
func (c *CompiledTree) AccumulateInto(dst []float64, rows []dataset.Instance) {
	c.batchInto(dst, rows, true)
}

// Classify routes an instance to its leaf, returning a materialized
// leaf Node (LeafID, N, Mean and a model view over the packed
// coefficients) plus the decision path — the same contract as
// Tree.Classify, so the serving layer's /v1/classify works on compiled
// trees unchanged.
func (c *CompiledTree) Classify(row dataset.Instance) (leaf *Node, path []PathStep) {
	attr, thr := c.splitAttr, c.threshold
	n := int32(0)
	for attr[n] >= 0 {
		a := attr[n]
		path = append(path, PathStep{
			Attr:      int(a),
			Name:      c.attrName(int(a)),
			Threshold: thr[n],
			Above:     row[a] > thr[n],
		})
		if row[a] <= thr[n] {
			n = c.left[n]
		} else {
			n = c.right[n]
		}
	}
	return c.materialize(n), path
}

// materialize builds a standalone leaf Node view of flat node i. The
// model's coefficient slices alias the packed arenas (callers must not
// mutate them); Attrs is converted because linreg uses int indices.
func (c *CompiledTree) materialize(i int32) *Node {
	n := &Node{
		SplitAttr: -1,
		N:         int(c.nodeN[i]),
		SD:        c.sd[i],
		Mean:      c.mean[i],
		LeafID:    int(c.leafID[i]),
	}
	if c.hasLM[i] != 0 {
		off, end := c.lmOff[i], c.lmOff[i+1]
		attrs := make([]int, end-off)
		for j := range attrs {
			attrs[j] = int(c.lmAttrs[off+int32(j)])
		}
		n.Model = &linreg.Model{
			Intercept: c.lmIntercept[i],
			Attrs:     attrs,
			Coefs:     c.lmCoefs[off:end:end],
			Names:     c.lmNames[i],
		}
	}
	return n
}

// Contributions decomposes the unsmoothed leaf prediction into
// per-event CPI shares — the paper's Eq. 4 — with arithmetic identical
// to Tree.Contributions.
func (c *CompiledTree) Contributions(row dataset.Instance) []model.Contribution {
	n := c.leafFor(row)
	pred := c.lmPredict(n, row)
	off, end := c.lmOff[n], c.lmOff[n+1]
	out := make([]model.Contribution, 0, end-off)
	for j := off; j < end; j++ {
		if coef := c.lmCoefs[j]; coef != 0 {
			a := int(c.lmAttrs[j])
			out = append(out, contribution(a, c.attrName(a), coef, row[a], pred))
		}
	}
	model.SortContributions(out)
	return out
}

// TopContribution implements model.Model with the selection rule of
// Tree.TopContribution, over the packed leaf terms.
func (c *CompiledTree) TopContribution(row dataset.Instance) (model.Contribution, bool) {
	n := c.leafFor(row)
	best := int32(-1)
	var bestCyc float64
	for j, end := c.lmOff[n], c.lmOff[n+1]; j < end; j++ {
		coef := c.lmCoefs[j]
		if coef == 0 {
			continue
		}
		if cyc := coef * row[c.lmAttrs[j]]; best < 0 || cyc > bestCyc {
			best, bestCyc = j, cyc
		}
	}
	if best < 0 {
		return model.Contribution{}, false
	}
	a := int(c.lmAttrs[best])
	return contribution(a, c.attrName(a), c.lmCoefs[best], row[a], c.lmPredict(n, row)), true
}

func (c *CompiledTree) attrName(a int) string {
	if a >= 0 && a < len(c.attrNames) {
		return c.attrNames[a]
	}
	return defaultAttrName(a)
}

// NumLeaves reports the number of leaves (performance classes).
func (c *CompiledTree) NumLeaves() int { return c.numLeaves }

// Describe matches the source tree's description field for field, so
// registries and /v1/models listings are unchanged by compilation.
func (c *CompiledTree) Describe() model.Description {
	return model.Description{
		Kind:      "m5-model-tree",
		Target:    c.targetName,
		AttrNames: c.attrNames,
		TrainN:    c.trainN,
		NumLeaves: c.numLeaves,
		Trees:     1,
		Machine:   c.machine,
	}
}

// CompileModel implements model.Compilable: the serving registry calls
// it on registration to switch the hot path to the flat-array form. A
// tree that does not compile, or whose compiled form fails the checks
// ReadJSON runs on a decoded file (a split or model attribute outside
// the schema, a node without a linear model), yields the error ReadJSON
// would report, and the registry rejects it: a registered tree
// evaluates any row of its width.
func (t *Tree) CompileModel() (model.Model, error) {
	c, err := t.compileChecked()
	if err != nil {
		return nil, err
	}
	return c, nil
}
