package mem

import "testing"

// BenchmarkCacheAccess drives the demand-access path of an L1-like cache
// with a mix of within-line repeats (the inlined fast path), short strides
// within a set and a second irregular stream, approximating the address
// pattern the simulator core generates. The steady state must not allocate.
func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache(CacheConfig{Name: "L1D", SizeB: 32 << 10, Ways: 8, LineB: 64})
	b.ReportAllocs()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		c.Access(addr)
		c.Access(addr + 8)
		c.Access(addr + 16)
		c.Access((addr * 0x9E3779B97F4A7C15) >> 20) // irregular second stream
		addr += 64
	}
	_ = c.MissRate()
}

// BenchmarkTLBAccess measures the translation path: mostly same-page
// repeats with periodic page changes, like a sequential fetch stream.
func BenchmarkTLBAccess(b *testing.B) {
	t := NewTLB(TLBConfig{Name: "DTLB", Entries: 256, Ways: 4, PageB: 4 << 10})
	b.ReportAllocs()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		t.Access(addr)
		addr += 192 // ~21 repeats per 4 KiB page
	}
	_ = t.Misses()
}

// BenchmarkHierarchyData runs full data accesses (TLBs, L1D, L2, stream
// prefetcher) alternating a sequential load stream with strided stores.
func BenchmarkHierarchyData(b *testing.B) {
	h := NewHierarchy(testCore2Geometry())
	b.ReportAllocs()
	seq, strided := uint64(0), uint64(1<<30)
	for i := 0; i < b.N; i++ {
		h.Data(seq, true)
		h.Data(strided, false)
		seq += 8
		strided += 4096
	}
}

// BenchmarkHierarchyFetch measures instruction fetch: sequential code with
// a taken branch every 32 instructions, the pattern the repeat-line fast
// path is built for.
func BenchmarkHierarchyFetch(b *testing.B) {
	h := NewHierarchy(testCore2Geometry())
	b.ReportAllocs()
	pc := uint64(0x400000)
	for i := 0; i < b.N; i++ {
		if !h.FetchFast(pc) {
			h.Fetch(pc)
		}
		pc += 4
		if i%32 == 31 {
			pc += 1 << 12
			if pc > 0x400000+(1<<22) {
				pc = 0x400000
			}
		}
	}
}

// TestHotPathsAllocationFree enforces the zero-allocation claim of the
// benchmarks above: once warm, a cache or TLB probe, a hierarchy data
// access and an instruction fetch allocate nothing. Addresses keep
// advancing across runs, so misses, fills and prefetches are exercised
// too, not only hits.
func TestHotPathsAllocationFree(t *testing.T) {
	c := NewCache(CacheConfig{Name: "L1D", SizeB: 32 << 10, Ways: 8, LineB: 64})
	tlb := NewTLB(TLBConfig{Name: "DTLB", Entries: 256, Ways: 4, PageB: 4 << 10})
	h := NewHierarchy(testCore2Geometry())
	addr, seq, strided, pc := uint64(0), uint64(0), uint64(1<<30), uint64(0x400000)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Cache.Access", func() {
			c.Access(addr)
			c.Access((addr * 0x9E3779B97F4A7C15) >> 20)
			addr += 64
		}},
		{"TLB.Access", func() {
			tlb.Access(addr)
			addr += 4 << 10
		}},
		{"Hierarchy.Data", func() {
			h.Data(seq, true)
			h.Data(strided, false)
			seq += 64
			strided += 4096
		}},
		{"Hierarchy.Fetch", func() {
			if !h.FetchFast(pc) {
				h.Fetch(pc)
			}
			pc += 1 << 12
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %v objects per call, want 0", tc.name, allocs)
		}
	}
}
