package mtree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/linreg"
	"repro/internal/parallel"
)

// Node is one node of a model tree. Interior nodes route instances by
// comparing one attribute against a threshold (<= goes left); every node
// carries a linear model so that pruning can turn any interior node into a
// leaf.
type Node struct {
	// SplitAttr is the dataset column tested at this node (-1 for leaves).
	SplitAttr int
	// SplitName is the attribute name of SplitAttr, for rendering.
	SplitName string
	// Threshold is the split point; instances with value <= Threshold
	// descend left.
	Threshold float64
	// Left and Right are the children (nil for leaves).
	Left, Right *Node
	// Model is the linear model fitted at this node.
	Model *linreg.Model
	// N is the number of training instances that reached this node.
	N int
	// SD is the standard deviation of the target over those instances.
	SD float64
	// Mean is the mean target over those instances.
	Mean float64
	// LeafID numbers leaves in left-to-right order (1-based, matching the
	// paper's LM1..LM18 labels); 0 for interior nodes.
	LeafID int
	// ModelAttrs are the candidate attributes for this node's linear
	// model: the attributes tested in splits below this node in the
	// *unpruned* tree (M5's recipe). A node pruned to a leaf keeps the
	// candidates of its former subtree, which is how leaf equations like
	// the paper's LM8 retain multiple events.
	ModelAttrs []int
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a trained M5' model tree.
type Tree struct {
	Root   *Node
	Config Config
	// TargetName is the dataset target column name (e.g. "CPI").
	TargetName string
	// AttrNames are the dataset attribute names by column index.
	AttrNames []string
	// TrainN is the size of the training set.
	TrainN int
	// GlobalSD is the target standard deviation of the training set.
	GlobalSD float64
	// Machine names the simulated machine the training collection ran on
	// (an internal/march registry name); empty when not recorded. Carried
	// through persistence, compilation and serving as a provenance tag.
	Machine string
}

// Build grows and (optionally) prunes an M5' tree on the dataset.
func Build(d *dataset.Dataset, cfg Config) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, errors.New("mtree: cannot build tree on empty dataset")
	}
	attrs := d.Attrs()
	names := make([]string, len(attrs))
	for i, a := range attrs {
		names[i] = a.Name
	}
	t := &Tree{
		Config:     cfg,
		TargetName: d.TargetName(),
		AttrNames:  names,
		TrainN:     d.Len(),
		GlobalSD:   d.TargetStdDev(),
	}
	b := &builder{cfg: cfg, globalSD: t.GlobalSD, features: d.FeatureIndices()}
	t.Root = b.grow(d)
	fitNodes(t.Root, d, cfg, nil)
	numberLeaves(t.Root)
	return t, nil
}

type builder struct {
	cfg      Config
	globalSD float64
	features []int
}

// grow recursively builds the unpruned tree with its per-node statistics.
// Models are fitted afterwards, in the same pass that prunes (fitNodes).
func (b *builder) grow(d *dataset.Dataset) *Node {
	n := &Node{
		SplitAttr: -1,
		N:         d.Len(),
		SD:        d.TargetStdDev(),
		Mean:      d.TargetMean(),
	}
	// Termination: too small to split, or already homogeneous.
	if d.Len() < 2*b.cfg.MinLeaf || n.SD < b.cfg.SDThresholdFraction*b.globalSD {
		return n
	}
	attr, threshold, ok := b.bestSplit(d)
	if !ok {
		return n
	}
	left, right := d.Split(attr, threshold)
	if left.Len() < b.cfg.MinLeaf || right.Len() < b.cfg.MinLeaf {
		// Defensive: bestSplit enforces this, but floating-point threshold
		// selection could in principle produce a degenerate partition.
		return n
	}
	n.SplitAttr = attr
	n.Threshold = threshold
	n.Left = b.grow(left)
	n.Right = b.grow(right)
	// Record the model candidates while the unpruned subtree is intact.
	set := map[int]bool{}
	subtreeSplitAttrs(n, set)
	n.ModelAttrs = make([]int, 0, len(set))
	for a := range set {
		n.ModelAttrs = append(n.ModelAttrs, a)
	}
	sort.Ints(n.ModelAttrs)
	return n
}

// splitParallelMinRows is the node size below which bestSplit always uses
// the serial scan: at small nodes goroutine fan-out costs more than the
// O(n log n) per-attribute sweeps it parallelizes. Determinism does not
// depend on this cutoff — both paths produce identical splits.
const splitParallelMinRows = 2048

// pair is one (attribute value, target) observation in a split sweep.
type pair struct{ x, y float64 }

// comparePairs orders pairs by x for slices.SortFunc: -1 exactly when
// a.x < b.x, so ±0 and NaNs compare as the less function x < y has them
// (cmp.Compare orders NaNs differently). The sort is not stable, the SDR
// prefix sums follow the order it leaves ties in, and the golden tree
// hashes pin that order: it must be sort.Slice's with that less function,
// which TestComparePairsSortsLikeSortSlice checks.
func comparePairs(a, b pair) int {
	switch {
	case a.x < b.x:
		return -1
	case b.x < a.x:
		return 1
	}
	return 0
}

// attrSplit is the best split found for a single attribute.
type attrSplit struct {
	sdr       float64 // standard-deviation reduction
	threshold float64
	ok        bool
}

// bestSplit searches all attributes and thresholds for the split that
// maximizes the standard deviation reduction
//
//	SDR = sd(T) - |L|/|T|*sd(L) - |R|/|T|*sd(R)
//
// subject to both children having at least MinLeaf instances. The search
// per attribute is O(n log n): sort by the attribute once and sweep with
// running sums. Attributes are scored independently — concurrently at
// large nodes — and reduced in ascending attribute order with a strict
// greater-than comparison, so exact SDR ties break toward the lowest
// attribute index regardless of goroutine scheduling.
func (b *builder) bestSplit(d *dataset.Dataset) (attr int, threshold float64, ok bool) {
	n := d.Len()
	sdT := d.TargetStdDev()

	// The total target sum and sum of squares feed every attribute's
	// suffix computation; they are constant across attributes, so compute
	// them once (in row order, making them identical for all attributes
	// and all worker counts).
	var totalSum, totalSq float64
	for i := 0; i < n; i++ {
		y := d.Target(i)
		totalSum += y
		totalSq += y * y
	}

	par := parallel.Config{Jobs: b.cfg.Jobs}
	var scores []attrSplit
	if par.Workers() > 1 && n >= splitParallelMinRows {
		scores, _ = parallel.Map(par, b.features, func(_ int, a int) (attrSplit, error) {
			return scoreAttribute(d, a, make([]pair, n), sdT, totalSum, totalSq, b.cfg.MinLeaf), nil
		})
	} else {
		scores = make([]attrSplit, len(b.features))
		pairs := make([]pair, n) // one buffer, reused across attributes
		for i, a := range b.features {
			scores[i] = scoreAttribute(d, a, pairs, sdT, totalSum, totalSq, b.cfg.MinLeaf)
		}
	}

	bestSDR := 0.0
	for i, s := range scores {
		if s.ok && s.sdr > bestSDR {
			bestSDR = s.sdr
			attr = b.features[i]
			threshold = s.threshold
			ok = true
		}
	}
	// Require a meaningful reduction; an SDR of zero means no split helps.
	if bestSDR <= 1e-12 {
		return 0, 0, false
	}
	return attr, threshold, ok
}

// scoreAttribute finds attribute a's best threshold by SDR. pairs is a
// caller-provided scratch buffer of length d.Len().
func scoreAttribute(d *dataset.Dataset, a int, pairs []pair, sdT, totalSum, totalSq float64, minLeaf int) (best attrSplit) {
	n := d.Len()
	lo, hi := d.Value(0, a), d.Value(0, a)
	for i := 0; i < n; i++ {
		v := d.Value(i, a)
		pairs[i] = pair{v, d.Target(i)}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// A constant attribute admits no split; skip the sort and sweep.
	if lo == hi {
		return attrSplit{}
	}
	slices.SortFunc(pairs, comparePairs)

	// Suffix sums for the right side; prefix accumulates the left.
	var leftSum, leftSq float64
	for i := 0; i < n-1; i++ {
		leftSum += pairs[i].y
		leftSq += pairs[i].y * pairs[i].y
		// A split between i and i+1 requires distinct attribute values.
		if pairs[i].x == pairs[i+1].x {
			continue
		}
		nl, nr := i+1, n-i-1
		if nl < minLeaf || nr < minLeaf {
			continue
		}
		sdl := sdFromSums(leftSum, leftSq, nl)
		sdr := sdFromSums(totalSum-leftSum, totalSq-leftSq, nr)
		red := sdT - (float64(nl)*sdl+float64(nr)*sdr)/float64(n)
		if red > best.sdr {
			best = attrSplit{sdr: red, threshold: (pairs[i].x + pairs[i+1].x) / 2, ok: true}
		}
	}
	return best
}

func sdFromSums(sum, sq float64, n int) float64 {
	if n == 0 {
		return 0
	}
	mean := sum / float64(n)
	v := sq/float64(n) - mean*mean
	if v < 0 {
		v = 0 // guard against rounding
	}
	return math.Sqrt(v)
}

// subtreeSplitAttrs collects the attributes tested anywhere in the subtree
// rooted at n. M5 fits each node's linear model over exactly this set,
// which keeps leaf equations focused on the events that define the class.
func subtreeSplitAttrs(n *Node, into map[int]bool) {
	if n == nil || n.IsLeaf() {
		return
	}
	into[n.SplitAttr] = true
	subtreeSplitAttrs(n.Left, into)
	subtreeSplitAttrs(n.Right, into)
}

// fitNodeModel fits the node's linear model. Candidate attributes are the
// splits in the node's (pre-pruning) subtree plus the splits on the path
// from the root — the events that *define* the node's class. The greedy
// elimination step then trims the set, producing the paper's compact leaf
// equations.
func fitNodeModel(n *Node, d *dataset.Dataset, cfg Config, path []int) *linreg.Model {
	var feats []int
	if cfg.SubtreeAttributesOnly {
		set := make(map[int]bool, len(n.ModelAttrs)+len(path))
		for _, a := range n.ModelAttrs {
			set[a] = true
		}
		for _, a := range path {
			set[a] = true
		}
		feats = make([]int, 0, len(set))
		for a := range set {
			feats = append(feats, a)
		}
		sort.Ints(feats)
	} else {
		feats = d.FeatureIndices()
	}
	if len(feats) == 0 {
		return linreg.FitConstant(d)
	}
	var m *linreg.Model
	var err error
	if cfg.DropAttributes {
		m, err = linreg.FitGreedy(d, feats)
	} else {
		m, err = linreg.Fit(d, feats)
	}
	if err != nil {
		return linreg.FitConstant(d)
	}
	return m
}

// numberLeaves assigns LeafID 1..k in left-to-right order.
func numberLeaves(root *Node) {
	id := 0
	var walk func(*Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			id++
			n.LeafID = id
			return
		}
		n.LeafID = 0
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
}

// NumLeaves returns the number of leaves (classes) in the tree.
func (t *Tree) NumLeaves() int {
	count := 0
	t.WalkLeaves(func(*Node, []PathStep) { count++ })
	return count
}

// Depth returns the maximum depth of the tree (a single leaf has depth 1).
func (t *Tree) Depth() int {
	var depth func(*Node) int
	depth = func(n *Node) int {
		if n == nil {
			return 0
		}
		l, r := depth(n.Left), depth(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return depth(t.Root)
}

// PathStep records one decision on the way from the root to a node: the
// attribute tested, the threshold, and which side was taken. A step with
// Above=true means the instance had a *high* value of the split event,
// which the paper treats as a potential performance-improvement source.
type PathStep struct {
	Attr      int
	Name      string
	Threshold float64
	Above     bool
}

func (s PathStep) String() string {
	op := "<="
	if s.Above {
		op = ">"
	}
	return fmt.Sprintf("%s %s %.6g", s.Name, op, s.Threshold)
}

// WalkLeaves visits every leaf with its root path, left to right.
func (t *Tree) WalkLeaves(fn func(leaf *Node, path []PathStep)) {
	var walk func(n *Node, path []PathStep)
	walk = func(n *Node, path []PathStep) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			fn(n, path)
			return
		}
		step := PathStep{Attr: n.SplitAttr, Name: t.AttrName(n.SplitAttr), Threshold: n.Threshold}
		walk(n.Left, append(path, step))
		step.Above = true
		walk(n.Right, append(path, step))
	}
	walk(t.Root, nil)
}

// AttrName is the name of schema column a, or "x<a>" for a column the
// tree has no name for.
func (t *Tree) AttrName(a int) string {
	if a >= 0 && a < len(t.AttrNames) {
		return t.AttrNames[a]
	}
	return fmt.Sprintf("x%d", a)
}
