package mtree

import (
	"repro/internal/dataset"
	"repro/internal/model"
)

// CompiledTree is a trained tree's prediction kernel: the walk and the
// per-node linear models flattened into contiguous arrays for
// branch-light, cache-friendly evaluation — the serving-side counterpart
// of the flat cache arrays in internal/sim/mem. Nodes are laid out in
// preorder: node 0 is the root and both children of any interior node
// have larger indices, so a root-to-leaf walk touches strictly
// increasing positions of one slice instead of chasing heap pointers
// through scattered Node allocations. Per-node linear models are packed
// row-major into one coefficient arena (lmAttrs/lmCoefs, indexed through
// the lmOff prefix table), so evaluating the models along a smoothing
// path streams one contiguous region.
//
// The arrays serve only the hot operations: Predict, the batch kernel
// PredictInto that /v1/predict runs, and TopContribution,
// which scores every /v1/stream sample. They predict bit-identically to
// the *Tree they were compiled from — same comparisons, same
// coefficient order, same smoothing arithmetic — which the differential
// property suite enforces. Every other method answers from that source
// tree, which the compiled form keeps and which must not change after
// compiling; Describe returns a description taken once at compile time.
type CompiledTree struct {
	src    *Tree
	desc   model.Description
	config Config

	nodeN []int64 // training instances that reached the node

	lmOff       []int32 // len(nodes)+1 prefix offsets into lmAttrs/lmCoefs
	lmIntercept []float64
	lmAttrs     []int32
	lmCoefs     []float64

	// walk packs the walk-critical fields into one 24-byte record per
	// node, so each descent step touches a single cache line instead of
	// several parallel arrays.
	walk []walkNode

	depth int // maximum root-to-leaf node count
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

// compiledPathInline is the smoothing-path buffer kept on the stack; a
// tree deeper than this (never seen in practice — depth grows
// logarithmically in the training set) falls back to one heap path
// allocation per call.
const compiledPathInline = 64

// Compile flattens a trained tree into its prediction kernel. The result
// keeps t as its source, so t must not change afterwards. Returns nil
// for a tree that fails the load-time check (see check; Build never
// returns one, and ReadJSON rejects it).
func Compile(t *Tree) *CompiledTree {
	c, _ := t.CompileModel()
	return c
}

// CompileModel is Compile with the reason for a rejection: the serving
// registry calls it on registration to switch the hot path to the
// flat-array form. A tree that fails the check ReadJSON runs on a
// decoded file (a split or model attribute outside the schema, a node
// without a linear model) yields the error ReadJSON would report, and
// the registry rejects it: a registered tree evaluates any row of its
// width.
func (t *Tree) CompileModel() (*CompiledTree, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	return compile(t), nil
}

// compile flattens a tree that check accepts.
func compile(t *Tree) *CompiledTree {
	nodes := countNodes(t.Root)
	c := &CompiledTree{
		src:         t,
		desc:        t.Describe(),
		config:      t.Config,
		nodeN:       make([]int64, nodes),
		lmOff:       make([]int32, nodes+1),
		lmIntercept: make([]float64, nodes),
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
		c.nodeN[i] = int64(n.N)
		m := n.Model
		c.lmIntercept[i] = m.Intercept
		for _, a := range m.Attrs {
			c.lmAttrs = append(c.lmAttrs, int32(a))
		}
		c.lmCoefs = append(c.lmCoefs, m.Coefs...)
		c.walk[i] = walkNode{attr: -1}
		if !n.IsLeaf() {
			left := flatten(n.Left, depth+1)
			right := flatten(n.Right, depth+1)
			c.walk[i] = walkNode{thr: n.Threshold, attr: int32(n.SplitAttr), child: [2]int32{left, right}}
		}
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

// PredictInto is the batch kernel: it fills dst[i] with the prediction
// for rows[i], allocation-free (walk indices and smoothing paths live
// on the stack) and bit-identical to calling Predict per row. It runs
// the same scalar walks as Predict with one smoothing-path scratch
// reused across the batch. dst must have at least len(rows) elements.
// This is what the /v1/predict batch endpoint runs.
func (c *CompiledTree) PredictInto(dst []float64, rows []dataset.Instance) {
	dst = dst[:len(rows)]
	var pbuf [compiledPathInline]int32
	path := pbuf[:0]
	if c.config.Smooth && c.depth > compiledPathInline {
		path = make([]int32, 0, c.depth)
	}
	for i, row := range rows {
		if c.config.Smooth {
			dst[i] = c.predictSmoothed(row, path)
		} else {
			dst[i] = c.lmPredict(c.leafFor(row), row)
		}
	}
}

// Classify answers from the source tree: /v1/classify is not a hot
// path, and the pointer walk is the reference the kernel is held to.
func (c *CompiledTree) Classify(row dataset.Instance) (leaf *Node, path []PathStep) {
	return c.src.Classify(row)
}

// Contributions answers from the source tree, as Classify does.
func (c *CompiledTree) Contributions(row dataset.Instance) []model.Contribution {
	return c.src.Contributions(row)
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
	return contribution(a, c.src.AttrName(a), c.lmCoefs[best], row[a], c.lmPredict(n, row)), true
}

// NumLeaves reports the number of leaves (performance classes).
func (c *CompiledTree) NumLeaves() int { return c.desc.NumLeaves }

// Describe returns the source tree's description, taken at compile time
// so the per-request schema lookup in the serving layer walks no nodes.
func (c *CompiledTree) Describe() model.Description { return c.desc }
