package counters

import (
	"testing"

	"repro/internal/sim/cpu"
	"repro/internal/sim/trace"
	"repro/internal/workload"
)

// BenchmarkCollectBenchmark measures one full benchmark collection (all
// phases and sections of the first suite entry, scaled down) — the unit of
// work CollectSuite parallelizes over.
func BenchmarkCollectBenchmark(b *testing.B) {
	suite := workload.SuiteScaled(0.05)
	cfg := DefaultCollectConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CollectBenchmark(suite[0], cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectionLoop isolates the steady-state inner loop of
// CollectBenchmark — generator block fill plus core block retire, with the
// per-section bookkeeping excluded. This loop must run at zero allocations
// per operation; the dataset rows appended between sections are the only
// allocating part of collection.
func BenchmarkSectionLoop(b *testing.B) {
	cfg := DefaultCollectConfig()
	bench := workload.Suite()[0]
	core := cpu.New(cfg.CPU, cfg.Geometry, cfg.Branch)
	gen, _ := workload.NewSectionSource(bench, cfg.Seed).Next()
	var block [trace.DefaultBlockLen]trace.Inst

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextBlock(block[:])
		core.StepBlock(block[:])
	}
	b.ReportMetric(float64(trace.DefaultBlockLen), "insts/op")
}

// TestSectionLoopAllocationFree enforces BenchmarkSectionLoop's claim:
// the steady-state collect loop, generator block fill plus core block
// retire, allocates nothing.
func TestSectionLoopAllocationFree(t *testing.T) {
	cfg := DefaultCollectConfig()
	core := cpu.New(cfg.CPU, cfg.Geometry, cfg.Branch)
	gen, _ := workload.NewSectionSource(workload.Suite()[0], cfg.Seed).Next()
	var block [trace.DefaultBlockLen]trace.Inst
	if allocs := testing.AllocsPerRun(100, func() {
		gen.NextBlock(block[:])
		core.StepBlock(block[:])
	}); allocs != 0 {
		t.Errorf("section loop allocates %v objects per block, want 0", allocs)
	}
}
