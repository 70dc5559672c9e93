// Benchmarks regenerating every table and figure of the paper (one
// Benchmark* per experiment; see DESIGN.md §4 for the index) plus
// micro-benchmarks of the substrates. The experiment benchmarks run at a
// reduced suite scale so `go test -bench=.` completes in minutes; run
// cmd/experiments for the full paper-scale numbers.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/march"
	"repro/internal/mtree"
	"repro/internal/parallel"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
	"repro/internal/workload"
)

// benchScale keeps the experiment benchmarks affordable. The reported
// "claims-hold" metric re-evaluates the paper-vs-measured checks at this
// reduced scale; checks whose thresholds are calibrated for the full run
// (headline decimals, census concentrations, comparator margins) may read
// 0 here — the authoritative pass/fail is `go run ./cmd/experiments` at
// scale 1.0, where all claims hold (see EXPERIMENTS.md).
const benchScale = 0.1

func benchCtx(b *testing.B) *experiments.Context {
	b.Helper()
	cfg := experiments.DefaultConfig()
	cfg.Scale = benchScale
	cfg.Folds = 5
	return experiments.NewContext(cfg)
}

// runExperiment runs one named experiment b.N times and reports the last
// result's claim outcomes through b.Log.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := experiments.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	ctx := benchCtx(b)
	// Simulate the shared dataset outside the timed region.
	if _, err := ctx.Collection(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	ok = true
	for _, c := range res.Claims {
		if !c.Holds {
			ok = false
		}
	}
	b.ReportMetric(boolMetric(ok), "claims-hold")
}

func boolMetric(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// ---- One benchmark per paper artifact (E1..E9) ----

func BenchmarkTableICollection(b *testing.B)        { runExperiment(b, "tableI") }
func BenchmarkFigure1ExampleTree(b *testing.B)      { runExperiment(b, "figure1") }
func BenchmarkFigure2TreeConstruction(b *testing.B) { runExperiment(b, "figure2") }
func BenchmarkFigure3CrossValidation(b *testing.B)  { runExperiment(b, "figure3") }
func BenchmarkAccuracyMetrics(b *testing.B)         { runExperiment(b, "accuracy") }
func BenchmarkComparatorModels(b *testing.B)        { runExperiment(b, "comparators") }
func BenchmarkLeafCensus(b *testing.B)              { runExperiment(b, "leafcensus") }
func BenchmarkSplitImpact(b *testing.B)             { runExperiment(b, "splitimpact") }
func BenchmarkNaiveBaseline(b *testing.B)           { runExperiment(b, "naive") }

// ---- Ablations (DESIGN.md §5) ----

func BenchmarkAblationSmoothing(b *testing.B) { runExperiment(b, "ablation-smoothing") }
func BenchmarkAblationPruning(b *testing.B)   { runExperiment(b, "ablation-pruning") }
func BenchmarkAblationMinLeaf(b *testing.B)   { runExperiment(b, "ablation-minleaf") }
func BenchmarkAblationAttrDrop(b *testing.B)  { runExperiment(b, "ablation-attrdrop") }
func BenchmarkAblationPrefetch(b *testing.B)  { runExperiment(b, "ablation-prefetch") }

// ---- Cross-architecture extensions ----

func BenchmarkNetBurstComparison(b *testing.B) { runExperiment(b, "netburst") }
func BenchmarkInOrderComparison(b *testing.B)  { runExperiment(b, "inorder") }

// BenchmarkGroundTruthValidation compares model-attributed cycles with the
// simulator's true cycle stack (see EXPERIMENTS.md E12).
func BenchmarkGroundTruthValidation(b *testing.B) { runExperiment(b, "groundtruth") }

// BenchmarkBaggedEnsemble compares bagged M5' against the single tree.
func BenchmarkBaggedEnsemble(b *testing.B) { runExperiment(b, "bagging") }

// BenchmarkAblationSectionLength sweeps the retired-instruction count per
// section, the paper's data-grouping knob.
func BenchmarkAblationSectionLength(b *testing.B) {
	for _, sectionLen := range []uint64{5000, 20000, 80000} {
		b.Run(fmt.Sprintf("len%d", sectionLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ccfg := counters.DefaultCollectConfig()
				ccfg.SectionLen = sectionLen
				col, err := counters.CollectSuite(workload.SuiteScaled(0.05), ccfg)
				if err != nil {
					b.Fatal(err)
				}
				cfg := mtree.DefaultConfig()
				cfg.MinLeaf = 20
				learner := eval.LearnerFunc{N: "M5'", F: func(d *dataset.Dataset) (eval.Regressor, error) {
					return mtree.Build(d, cfg)
				}}
				res, err := eval.CrossValidate(learner, col.Data, 5, 1, parallel.Config{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Pooled.Correlation, "CV-correlation")
			}
		})
	}
}

// ---- Parallel execution layer (serial vs all-cores; identical output) ----

// benchJobVariants yields the serial baseline and the all-cores variant.
// On a multi-core runner the jobsN sub-benchmarks should show near-linear
// speedup for collection (embarrassingly parallel benchmarks) and
// substantial speedup for CV and bagging; the outputs are byte-identical
// either way (see determinism_test.go).
func benchJobVariants() []int {
	max := runtime.GOMAXPROCS(0)
	if max == 1 {
		return []int{1}
	}
	return []int{1, max}
}

// BenchmarkParallelCollect measures suite simulation throughput, the
// dominant cost of a full-scale experiment run.
func BenchmarkParallelCollect(b *testing.B) {
	suite := workload.SuiteScaled(0.1)
	for _, jobs := range benchJobVariants() {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			cfg := counters.DefaultCollectConfig()
			cfg.Jobs = jobs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := counters.CollectSuite(suite, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelCV measures k-fold cross validation of the M5' tree
// with folds trained serially vs concurrently.
func BenchmarkParallelCV(b *testing.B) {
	ctx := benchCtx(b)
	col, err := ctx.Collection()
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range benchJobVariants() {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			cfg := mtree.DefaultConfig()
			cfg.MinLeaf = 43
			cfg.Jobs = jobs
			learner := eval.LearnerFunc{N: "M5'", F: func(d *dataset.Dataset) (eval.Regressor, error) {
				return mtree.Build(d, cfg)
			}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.CrossValidate(learner, col.Data, 5, 1, parallel.Config{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelBagging measures bagged-ensemble training with member
// trees trained serially vs concurrently.
func BenchmarkParallelBagging(b *testing.B) {
	ctx := benchCtx(b)
	col, err := ctx.Collection()
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range benchJobVariants() {
		b.Run(fmt.Sprintf("jobs%d", jobs), func(b *testing.B) {
			cfg := ensemble.DefaultConfig()
			cfg.Trees = 10
			cfg.Tree.MinLeaf = 43
			cfg.Tree.Jobs = jobs
			cfg.Jobs = jobs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ensemble.Train(col.Data, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkSimulatorThroughput measures core-model speed in instructions
// per second over a representative kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := workload.Suite()[0].Phases[0].Params
	gen := workload.NewGenerator(p, 1)
	spec := march.Core2()
	core := cpu.New(spec.CPUConfig(), spec.Geometry(), spec.BranchConfig())
	var in trace.Inst
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next(&in)
		core.Step(&in)
	}
}

// BenchmarkCacheAccess measures the set-associative cache lookup path.
func BenchmarkCacheAccess(b *testing.B) {
	c := mem.NewCache(mem.CacheConfig{Name: "b", SizeB: 32 << 10, Ways: 8, LineB: 64})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i) * 64 % (1 << 20))
	}
}

// BenchmarkTreeBuild measures M5' training time on the (reduced) suite
// dataset.
func BenchmarkTreeBuild(b *testing.B) {
	ctx := benchCtx(b)
	col, err := ctx.Collection()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 43
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mtree.Build(col.Data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreePredict measures single-section prediction latency
// (smoothing enabled).
func BenchmarkTreePredict(b *testing.B) {
	ctx := benchCtx(b)
	col, err := ctx.Collection()
	if err != nil {
		b.Fatal(err)
	}
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 43
	tree, err := mtree.Build(col.Data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rows := col.Data
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(rows.Row(i % rows.Len()))
	}
}

// BenchmarkSectionCollection measures end-to-end section collection
// (workload synthesis + simulation + counter extraction).
func BenchmarkSectionCollection(b *testing.B) {
	bench, _ := workload.BenchmarkByName("429.mcf")
	cfg := counters.DefaultCollectConfig()
	cfg.SectionLen = 5000
	small := bench.Scale(0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := counters.CollectBenchmark(small, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
