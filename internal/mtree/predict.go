package mtree

import (
	"repro/internal/dataset"
)

// Predict returns the tree's estimate of the target for one instance. With
// smoothing enabled the raw leaf prediction is blended with the prediction
// of every ancestor model on the way back to the root:
//
//	p' = (n*p_below + k*p_node) / (n + k)
//
// where n is the number of training instances at the lower node and k is
// the smoothing constant (15 in M5). Smoothing compensates for the sharp
// discontinuities between adjacent leaf models.
func (t *Tree) Predict(row dataset.Instance) float64 {
	if !t.Config.Smooth {
		// Unsmoothed prediction needs no path at all: walk straight to
		// the leaf and evaluate its model, allocation-free.
		return t.LeafFor(row).Model.Predict(row)
	}
	// Smoothing blends ancestor models bottom-up, so the path is needed
	// — but it lives in a stack buffer instead of a per-call heap slice
	// (the compiled evaluator uses the same trick); only a tree deeper
	// than the buffer falls back to one append-driven allocation.
	var pbuf [predictPathInline]*Node
	path := pbuf[:0]
	n := t.Root
	for {
		path = append(path, n)
		if n.IsLeaf() {
			break
		}
		if row[n.SplitAttr] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	p := n.Model.Predict(row)
	k := t.Config.SmoothingK
	for i := len(path) - 2; i >= 0; i-- {
		node := path[i]
		below := path[i+1]
		p = (float64(below.N)*p + k*node.Model.Predict(row)) / (float64(below.N) + k)
	}
	return p
}

// predictPathInline is the stack capacity of Predict's smoothing path.
const predictPathInline = 64

// LeafFor walks an instance from the root to its leaf, allocation-free,
// building no decision path (Classify builds one).
func (t *Tree) LeafFor(row dataset.Instance) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if row[n.SplitAttr] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// Classify routes an instance to its leaf and returns the leaf together
// with the decision path, the inputs to the paper's performance analysis:
// the leaf's linear model answers "how much", and the path's high-side
// split variables flag implicit performance limiters. The path is built
// during the one descent.
func (t *Tree) Classify(row dataset.Instance) (leaf *Node, path []PathStep) {
	n := t.Root
	for !n.IsLeaf() {
		a := n.SplitAttr
		path = append(path, PathStep{
			Attr:      a,
			Name:      t.AttrName(a),
			Threshold: n.Threshold,
			Above:     row[a] > n.Threshold,
		})
		if row[a] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n, path
}

// Leaf returns the leaf with the given 1-based LeafID, or nil.
func (t *Tree) Leaf(id int) *Node {
	var found *Node
	t.WalkLeaves(func(n *Node, _ []PathStep) {
		if n.LeafID == id {
			found = n
		}
	})
	return found
}

// LeafPath returns the root path of the leaf with the given ID, or nil.
func (t *Tree) LeafPath(id int) []PathStep {
	var found []PathStep
	t.WalkLeaves(func(n *Node, path []PathStep) {
		if n.LeafID == id {
			found = append([]PathStep(nil), path...)
		}
	})
	return found
}
