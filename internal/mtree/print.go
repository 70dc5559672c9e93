package mtree

import (
	"fmt"
	"strings"
)

// String renders the tree in Weka's M5' style, with leaf population
// percentages in parentheses as in the paper's Figure 2, followed by the
// leaf models:
//
//	L2M <= 0.000815 :
//	|   DtlbLdM <= 0.000264 : LM1 (31.4%)
//	|   DtlbLdM >  0.000264 : LM2 (12.0%)
//	L2M >  0.000815 : LM3 (56.6%)
//
//	LM1: CPI = 0.52 + 6.69*L1IM + ...
func (t *Tree) String() string {
	var b strings.Builder
	t.writeNode(&b, t.Root, 0)
	b.WriteString("\n")
	t.WalkLeaves(func(n *Node, _ []PathStep) {
		fmt.Fprintf(&b, "LM%d: %s = %s\n", n.LeafID, t.TargetName, n.Model)
	})
	return b.String()
}

func (t *Tree) writeNode(b *strings.Builder, n *Node, depth int) {
	indent := strings.Repeat("|   ", depth)
	if n.IsLeaf() {
		// Rendered inline by the parent; a root-only tree reaches here.
		fmt.Fprintf(b, "%sLM%d (%s)\n", indent, n.LeafID, t.leafShare(n))
		return
	}
	t.writeBranch(b, n, n.Left, depth, "<=")
	t.writeBranch(b, n, n.Right, depth, "> ")
}

func (t *Tree) writeBranch(b *strings.Builder, parent, child *Node, depth int, op string) {
	indent := strings.Repeat("|   ", depth)
	cond := fmt.Sprintf("%s%s %s %.6g :", indent, t.AttrName(parent.SplitAttr), op, parent.Threshold)
	if child.IsLeaf() {
		fmt.Fprintf(b, "%s LM%d (%s)\n", cond, child.LeafID, t.leafShare(child))
		return
	}
	fmt.Fprintf(b, "%s\n", cond)
	t.writeBranch(b, child, child.Left, depth+1, "<=")
	t.writeBranch(b, child, child.Right, depth+1, "> ")
}

func (t *Tree) leafShare(n *Node) string {
	if t.TrainN == 0 {
		return "?"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n.N)/float64(t.TrainN))
}

// Summary returns a one-line description of the tree shape.
func (t *Tree) Summary() string {
	return fmt.Sprintf("M5' tree: %d leaves, depth %d, trained on %d instances (target %s)",
		t.NumLeaves(), t.Depth(), t.TrainN, t.TargetName)
}
