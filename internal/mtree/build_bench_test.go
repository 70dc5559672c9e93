package mtree_test

import (
	"sync"
	"testing"

	"repro/internal/counters"
	"repro/internal/mtree"
	"repro/internal/workload"
)

// goldenCollection is the core2 suite at scale 0.05 (318 rows), collected
// once per test binary.
var goldenCollection = sync.OnceValues(func() (*counters.Collection, error) {
	return counters.CollectSuite(workload.SuiteScaled(0.05), counters.DefaultCollectConfig())
})

// BenchmarkBuildServed builds the served tree: the paper's configuration
// with the leaf floor scaled to the golden collection (MinLeaf n/20 over
// the core2 suite at scale 0.05), serially. This is the build that the
// demo server ships and that 10-fold cross validation repeats per fold;
// leaf regression (linreg.FitGreedy) dominates it.
func BenchmarkBuildServed(b *testing.B) {
	col, err := goldenCollection()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtree.PaperConfig()
	cfg.MinLeaf = max(col.Data.Len()/20, 4)
	cfg.Jobs = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtree.Build(col.Data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
