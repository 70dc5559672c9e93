package mtree_test

// Micro-benchmarks for the prediction hot path: the pointer walk vs the
// compiled flat-array evaluator, single-row and batched, smoothed and
// unsmoothed, on trees large enough that node layout dominates (a deep
// tree built with a small MinLeaf). The compiled batch kernel must
// report 0 allocs/op; `make bench-predict` snapshots these numbers next
// to the serving and simulator benchmarks.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/proptest"
)

// benchData generates a dataset whose target is genuinely nonlinear in
// every attribute (products of sines plus step terms), so the learner
// keeps splitting all the way down to MinLeaf instead of stopping at
// the SD threshold — production-tree sizes, not toy ones.
func benchData(rows, attrs int) *dataset.Dataset {
	cols := make([]dataset.Attribute, attrs+1)
	cols[0] = dataset.Attribute{Name: "CPI"}
	for i := 1; i <= attrs; i++ {
		cols[i] = dataset.Attribute{Name: fmt.Sprintf("E%d", i)}
	}
	d := dataset.MustNew(cols, 0)
	r := proptest.NewRand(proptest.CaseSeed("bench-predict-data", 0))
	for i := 0; i < rows; i++ {
		row := make(dataset.Instance, attrs+1)
		y := 1.0
		for j := 1; j <= attrs; j++ {
			row[j] = r.Float64()
			y += math.Sin(7 * row[j] * float64(j))
			if row[j] > 0.5 {
				y += 0.3 * float64(j)
			}
		}
		row[0] = y
		d.MustAppend(row)
	}
	return d
}

// benchRows picks a power-of-two number of probe rows so the single-row
// benchmarks can cycle through them with a mask instead of a modulo
// (an integer divide would dilute both sides of the comparison).
func benchRows(d *dataset.Dataset, n int) []dataset.Instance {
	rows := make([]dataset.Instance, n)
	for i := range rows {
		rows[i] = d.Row(i % d.Len())
	}
	return rows
}

// benchTree builds a production-scale tree over a compact event-counter
// set (six predictors, the shape of the paper's key-event CPI models):
// ~24k nodes, so the pointer form's scattered Node+Model allocations
// total ~8MB — well past L2 — while the compiled walk records stay
// L2-resident. Smoothing on: the expensive, representative
// configuration.
func benchTree(b *testing.B) (*mtree.Tree, []dataset.Instance) {
	b.Helper()
	d := benchData(60000, 6)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 4
	cfg.Prune = false
	cfg.SDThresholdFraction = 0.0005
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return tree, benchRows(d, 4096)
}

// predictBench runs the four-way comparison (pointer/compiled ×
// single/batch) for one tree configuration.
func predictBench(b *testing.B, tree *mtree.Tree, rows []dataset.Instance) {
	b.Helper()
	c := mtree.Compile(tree)
	mask := len(rows) - 1
	b.Run("pointer-single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.Predict(rows[i&mask])
		}
	})
	b.Run("compiled-single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Predict(rows[i&mask])
		}
	})
	dst := make([]float64, len(rows))
	b.Run("pointer-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, row := range rows {
				dst[j] = tree.Predict(row)
			}
		}
		b.ReportMetric(float64(b.N*len(rows))/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("compiled-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.PredictInto(dst, rows)
		}
		b.ReportMetric(float64(b.N*len(rows))/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkPredictCompiled compares the pointer walk, the compiled
// walk, and the compiled batch kernel in both smoothing regimes. The
// smoothed rows are bounded below by the shared blend arithmetic (the
// float work is bit-identical by design, so only walk and model-access
// costs can differ); the unsmoothed rows isolate the walk itself, which
// is where the flat layout pays off.
func BenchmarkPredictCompiled(b *testing.B) {
	tree, rows := benchTree(b)
	b.Logf("tree: %d leaves, depth %d", tree.NumLeaves(), tree.Depth())

	b.Run("smoothed", func(b *testing.B) {
		predictBench(b, tree, rows)
	})
	unsmoothed := *tree
	unsmoothed.Config.Smooth = false
	b.Run("unsmoothed", func(b *testing.B) {
		predictBench(b, &unsmoothed, rows)
	})
}
