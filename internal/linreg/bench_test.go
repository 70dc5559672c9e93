package linreg

import (
	"sync"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/workload"
)

// goldenData is the golden collection (the core2 suite at scale 0.05,
// 318 rows of 20 events), collected once per test binary.
var goldenData = sync.OnceValues(func() (*dataset.Dataset, error) {
	col, err := counters.CollectSuite(workload.SuiteScaled(0.05), counters.DefaultCollectConfig())
	if err != nil {
		return nil, err
	}
	return col.Data, nil
})

// BenchmarkFitGreedy is the greedy leaf search on the golden collection's
// full feature set: the global-linear baseline's fit and the largest
// candidate set any leaf of a tree over that data can have.
func BenchmarkFitGreedy(b *testing.B) {
	d, err := goldenData()
	if err != nil {
		b.Fatal(err)
	}
	features := d.FeatureIndices()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGreedy(d, features); err != nil {
			b.Fatal(err)
		}
	}
}
