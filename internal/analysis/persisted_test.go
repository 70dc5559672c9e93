package analysis

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mtree"
)

// TestAnalysisOnPersistedTree mirrors the cmd/train -> cmd/analyze
// workflow: reports computed from a JSON round-tripped tree must match
// those from the live tree exactly.
func TestAnalysisOnPersistedTree(t *testing.T) {
	d := perfData(2000, 11)
	tree := buildTree(t, d)

	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := mtree.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	live := AnalyzeWorkload(tree, d)
	persisted := AnalyzeWorkload(back, d)
	if live.N != persisted.N || math.Abs(live.MeanCPI-persisted.MeanCPI) > 1e-12 {
		t.Errorf("workload reports differ: %+v vs %+v", live, persisted)
	}
	if len(live.Issues) != len(persisted.Issues) {
		t.Fatalf("issue counts differ: %d vs %d", len(live.Issues), len(persisted.Issues))
	}
	for i := range live.Issues {
		if live.Issues[i].Name != persisted.Issues[i].Name ||
			math.Abs(live.Issues[i].MeanFraction-persisted.Issues[i].MeanFraction) > 1e-12 {
			t.Errorf("issue %d differs: %+v vs %+v", i, live.Issues[i], persisted.Issues[i])
		}
	}

	liveImp := SplitImpacts(tree, d)
	persImp := SplitImpacts(back, d)
	if len(liveImp) != len(persImp) {
		t.Fatalf("impact counts differ")
	}
	for i := range liveImp {
		if liveImp[i].Name != persImp[i].Name ||
			math.Abs(liveImp[i].MeanDifference-persImp[i].MeanDifference) > 1e-12 {
			t.Errorf("impact %d differs", i)
		}
	}
}

// TestSectionReportSmoothedVsLeaf documents that AnalyzeSection uses the
// raw leaf model (not the smoothed prediction), so the contribution
// arithmetic decomposes exactly.
func TestSectionReportSmoothedVsLeaf(t *testing.T) {
	d := perfData(2000, 12)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 100
	cfg.Smooth = true
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := d.Row(0)
	rep := AnalyzeSection(tree, row)
	leaf, _ := tree.Classify(row)
	if math.Abs(rep.PredictedCPI-leaf.Model.Predict(row)) > 1e-12 {
		t.Error("section report should use the leaf model prediction")
	}
	sum := rep.Baseline
	for _, c := range rep.Contributions {
		sum += c.Cycles
	}
	if math.Abs(sum-rep.PredictedCPI) > 1e-9 {
		t.Errorf("decomposition %v != prediction %v", sum, rep.PredictedCPI)
	}
}

// TestIssuesOmitNegativeContributions: events whose terms reduce predicted
// CPI in a section must not appear as positive "issues" for it.
func TestIssuesOmitNegativeContributions(t *testing.T) {
	d := perfData(2000, 13)
	tree := buildTree(t, d)
	rep := AnalyzeWorkload(tree, d)
	for _, is := range rep.Issues {
		if is.MeanCycles < 0 || is.MeanFraction < -1e-12 {
			t.Errorf("issue %s has negative aggregate contribution %v", is.Name, is.MeanCycles)
		}
	}
}
