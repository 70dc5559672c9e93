package cpu

import (
	"testing"

	"repro/internal/sim/branch"
	"repro/internal/sim/trace"
	"repro/internal/workload"
)

// BenchmarkStep retires realistic synthesized instruction blocks through a
// full core model. This is the simulator's innermost loop: the per-block
// path must not allocate (the harness reports allocs/op; steady state is
// zero).
func BenchmarkStep(b *testing.B) {
	core := New(defaultConfig(), core2Geometry(), branch.DefaultConfig())
	bench := workload.Suite()[0]
	gen, _ := workload.NewSectionSource(bench, 42).Next()
	var block [trace.DefaultBlockLen]trace.Inst
	gen.NextBlock(block[:])

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.StepBlock(block[:])
	}
	b.ReportMetric(float64(trace.DefaultBlockLen), "insts/op")
}

// TestStepAllocationFree enforces BenchmarkStep's zero-allocation
// claim: retiring a block through the core, and a single Step,
// allocates nothing.
func TestStepAllocationFree(t *testing.T) {
	core := New(defaultConfig(), core2Geometry(), branch.DefaultConfig())
	gen, _ := workload.NewSectionSource(workload.Suite()[0], 42).Next()
	var block [trace.DefaultBlockLen]trace.Inst
	gen.NextBlock(block[:])
	if allocs := testing.AllocsPerRun(100, func() { core.StepBlock(block[:]) }); allocs != 0 {
		t.Errorf("StepBlock allocates %v objects per block, want 0", allocs)
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		core.Step(&block[i%len(block)])
		i++
	}); allocs != 0 {
		t.Errorf("Step allocates %v objects per instruction, want 0", allocs)
	}
}
