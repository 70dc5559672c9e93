package mtree

import (
	"repro/internal/dataset"
	"repro/internal/linreg"
)

// fitNodes fits every node's linear model exactly once, depth first, and
// stores it in n.Model. With cfg.Prune it is also M5's bottom-up
// post-pruning: at each interior node the complexity-corrected error of
// the node model is compared with the corrected error of the subtree
// below it (each child evaluated on the training instances routed to it,
// combined by instance-weighted average). When the node model is at least
// as accurate as the subtree, the subtree is replaced by a leaf that keeps
// the model — this is how LM18 in the paper, a bare constant, survives as
// a class of its own. A surviving node's model is the one fitted here,
// since pruning below it never changes its rows, root path or ModelAttrs.
//
// fitNodes returns the corrected error of the (possibly pruned) node on d
// when pruning, and 0 otherwise. path carries the root-path split
// attributes for model fitting.
func fitNodes(n *Node, d *dataset.Dataset, cfg Config, path []int) float64 {
	n.Model = fitNodeModel(n, d, cfg, path)
	var nodeErr float64
	if cfg.Prune {
		nodeErr = linreg.CorrectedError(n.Model, d)
	}
	if n.IsLeaf() {
		return nodeErr
	}
	left, right := d.Split(n.SplitAttr, n.Threshold)
	if cfg.Prune && (left.Len() == 0 || right.Len() == 0) {
		// The split no longer separates this data (can happen only with a
		// degenerate threshold); collapse to a leaf.
		makeLeaf(n)
		return nodeErr
	}
	childPath := append(path, n.SplitAttr)
	leftErr := fitNodes(n.Left, left, cfg, childPath)
	rightErr := fitNodes(n.Right, right, cfg, childPath)
	if !cfg.Prune {
		return 0
	}
	subtreeErr := (float64(left.Len())*leftErr + float64(right.Len())*rightErr) / float64(d.Len())
	if nodeErr <= subtreeErr {
		makeLeaf(n)
		return nodeErr
	}
	return subtreeErr
}

func makeLeaf(n *Node) {
	n.Left, n.Right = nil, nil
	n.SplitAttr = -1
	n.SplitName = ""
	n.Threshold = 0
}
