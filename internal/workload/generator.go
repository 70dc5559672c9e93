package workload

import (
	"repro/internal/sim/trace"
	"repro/internal/xrand"
)

// Generator synthesizes the instruction stream of one kernel. It implements
// trace.Stream and runs forever; drive it a section at a time.
type Generator struct {
	p Params
	// rng is the lagged-Fibonacci generator (package xrand): a
	// bit-exact math/rand clone whose draws avoid the Source interface
	// dispatch the synthesizer would otherwise pay several times per
	// instruction.
	rng *xrand.Rand

	// Address-space layout: code and data live in disjoint regions so
	// I-side and D-side structures do not alias.
	codeBase uint64
	dataBase uint64

	pc      uint64 // offset within the code footprint
	dataPos uint64 // current stream position within the data footprint
	hotPos  uint64 // rotating position within the hot working set
	hotSize uint64 // hot working-set size in bytes

	// pendingStore counts down instructions since the last store, used to
	// decide block conditions plausibly (a load can only be blocked by a
	// recent store).
	sinceStore int

	// Loop state: the back-edge branch currently iterating and its
	// remaining trips. Bounded trip counts keep loop bodies from
	// dominating the dynamic instruction mix.
	loopPC   uint64
	loopLeft uint64

	// Page-burst state: the page currently being worked and the remaining
	// accesses before moving to a new page (PageBurstLen > 0 only).
	burstPage uint64
	burstLeft int

	// freshPage is the next never-before-touched page index, for
	// FreshPageFrac accesses (allocator growth).
	freshPage uint64

	// memo is a direct-mapped cache of the per-PC static hash values
	// consulted on every instruction (kind, LCP, misalignment, split).
	// They are pure functions of the PC, so memoized entries return the
	// exact float64 bits the hashes would — the stream is byte-identical —
	// while loops stop paying four avalanche mixes per revisited site.
	memo []pcStatic
}

// pcStatic holds the memoized static properties of one instruction site.
type pcStatic struct {
	pc    uint64
	kind  float64 // staticU01(pc, saltKind)
	lcp   float64 // staticU01(pc, saltLCP)
	mis   float64 // staticU01(pc, saltMisalign)
	split float64 // staticU01(pc, saltSplit)
}

// pcMemoSize is the direct-mapped memo capacity; PCs advance in 4-byte
// steps, so the table is indexed by pc>>2.
const pcMemoSize = 4096

// static returns the memo entry for pc, computing it on first touch or
// after a conflict eviction.
func (g *Generator) static(pc uint64) *pcStatic {
	e := &g.memo[(pc>>2)&(pcMemoSize-1)]
	if e.pc != pc {
		e.pc = pc
		e.kind = staticU01(pc, saltKind)
		e.lcp = staticU01(pc, saltLCP)
		e.mis = staticU01(pc, saltMisalign)
		e.split = staticU01(pc, saltSplit)
	}
	return e
}

// NewGenerator builds a generator for the kernel. It panics on invalid
// Params, which are static program data in this repository.
func NewGenerator(p Params, seed int64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	hot := uint64(p.HotFootprint)
	if hot == 0 {
		hot = 16 << 10
	}
	return &Generator{
		p:          p,
		rng:        xrand.New(seed),
		codeBase:   0x0000_4000_0000_0000,
		dataBase:   0x0000_7000_0000_0000,
		hotSize:    hot,
		sinceStore: 1 << 20,
		memo:       make([]pcStatic, pcMemoSize),
	}
}

// SetParams swaps in new kernel parameters while preserving streaming state
// (data position, code position, loop state, RNG). Section-to-section
// parameter jitter must not reset positions: restarting a multi-megabyte
// stream at zero every section would make its first hundreds of kilobytes
// L2-resident and erase the very miss behaviour the kernel models. It
// panics on invalid Params, like NewGenerator.
func (g *Generator) SetParams(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g.p = p
	hot := uint64(p.HotFootprint)
	if hot == 0 {
		hot = 16 << 10
	}
	g.hotSize = hot
	// Re-clamp positions to the possibly smaller footprints.
	if g.pc >= uint64(p.CodeFootprint) {
		g.pc = 0
	}
	if g.dataPos >= uint64(p.DataFootprint) {
		g.dataPos = 0
	}
	if g.hotPos >= g.hotSize {
		g.hotPos = 0
	}
}

// Next implements trace.Stream; it always returns true.
//
// The instruction *kind* at a given PC is a deterministic hash of the PC,
// not a per-visit coin flip: real code has a fixed instruction at every
// address, and that stability is what lets branch history repeat and the
// predictor train. Operand-level details (addresses, outcomes of
// data-dependent branches) remain stochastic.
func (g *Generator) Next(in *trace.Inst) bool {
	*in = trace.Inst{}
	g.nextCleared(in)
	return true
}

// nextCleared is Next's body, assuming *in is already zeroed. NextBlock
// zeroes a whole block with one memclr instead of one record at a time.
func (g *Generator) nextCleared(in *trace.Inst) {
	p := &g.p
	in.PC = g.codeBase + g.pc
	g.advancePC(4)

	st := g.static(in.PC)
	r := st.kind
	switch {
	case r < p.LoadFrac:
		g.genLoad(in, st)
	case r < p.LoadFrac+p.StoreFrac:
		g.genStore(in, st)
	case r < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		g.genBranch(in)
	default:
		in.Kind = trace.Other
		if g.rng.Float64() < p.ALUDepFrac {
			in.DepDist = uint8(1 + g.rng.Intn(3))
		}
	}

	// LCP encoding is a static property of the instruction at this PC.
	if st.lcp < p.LCPFrac {
		in.LCP = true
	}
	g.sinceStore++
}

// NextBlock implements trace.BlockStream: it fills all of buf (the
// generator is infinite) and returns len(buf). Each record is produced by
// the same Next logic in the same order, so a block-driven consumer sees
// the byte-identical instruction sequence of a record-at-a-time pull —
// just without paying an interface dispatch per instruction.
func (g *Generator) NextBlock(buf []trace.Inst) int {
	clear(buf)
	for i := range buf {
		g.nextCleared(&buf[i])
	}
	return len(buf)
}

func (g *Generator) advancePC(bytes uint64) {
	g.pc += bytes
	if g.pc >= uint64(g.p.CodeFootprint) {
		g.pc = 0
	}
}

// dataAddr returns the next data address: a cold access walks the large
// footprint per the configured pattern; a hot access rotates through the
// small L1-resident working set. isCold reports which it was, so the
// caller can attach dependency behaviour only to cold pointer chasing.
func (g *Generator) dataAddr() (addr uint64, isCold bool) {
	p := &g.p
	if p.FreshPageFrac > 0 && g.rng.Float64() < p.FreshPageFrac {
		// Touch a never-seen page in a separate growth region: guaranteed
		// TLB miss and cold line, like allocator or stack growth.
		g.freshPage++
		const growthBase = 0x0000_7800_0000_0000
		return growthBase + g.freshPage<<12 + uint64(g.rng.Intn(4096))&^7, true
	}
	if g.rng.Float64() >= p.ColdFrac {
		// Hot working set, accessed in the kernel's own style: streaming
		// kernels rotate through it, irregular kernels hit it randomly.
		// The hot region starts at the next line boundary past the cold
		// footprint so hot accesses are naturally aligned.
		if p.Pattern == Stream {
			g.hotPos = (g.hotPos + 64) % g.hotSize
		} else {
			g.hotPos = uint64(g.rng.Int63n(int64(g.hotSize))) &^ 7
		}
		hotBase := (uint64(p.DataFootprint) + 63) &^ 63
		return g.dataBase + hotBase + g.hotPos, false
	}
	fp := uint64(p.DataFootprint)
	switch {
	case p.Pattern == Stream:
		g.dataPos += uint64(p.StrideB)
		if g.dataPos >= fp {
			g.dataPos = 0
		}
	case p.PageBurstLen > 0:
		// Page-clustered irregular access: many lines per translation.
		if g.burstLeft <= 0 {
			pages := fp >> 12
			if pages == 0 {
				pages = 1
			}
			g.burstPage = uint64(g.rng.Int63n(int64(pages)))
			g.burstLeft = p.PageBurstLen
		}
		g.burstLeft--
		g.dataPos = g.burstPage<<12 | uint64(g.rng.Intn(4096))&^7
	default: // Random, PointerChase
		// Align to 8 bytes like typical pointer/word accesses.
		g.dataPos = uint64(g.rng.Int63n(p.DataFootprint)) &^ 7
	}
	return g.dataBase + g.dataPos, true
}

func (g *Generator) genLoad(in *trace.Inst, st *pcStatic) {
	p := &g.p
	in.Kind = trace.Load
	in.Size = 8
	addr, isCold := g.dataAddr()
	in.Addr = addr

	if isCold && p.Pattern == PointerChase {
		// The next pointer is consumed immediately: dependent chain.
		in.DepDist = 1
	} else if g.rng.Float64() < p.DepNearFrac {
		in.DepDist = uint8(1 + g.rng.Intn(4))
	}

	// Alignment hazards are static properties of the access site.
	if st.mis < p.MisalignFrac {
		// Misaligned within a line (offset 1), distinct from splits.
		in.Misaligned = true
		in.Addr = (in.Addr &^ 63) | 1
	}
	if st.split < p.SplitFrac {
		// Place the access so it straddles a 64-byte boundary.
		in.Addr = (in.Addr &^ 63) + 60
	}
	// Block conditions require a store in flight.
	if g.sinceStore < 8 {
		if g.rng.Float64() < p.BlockSTAFrac {
			in.BlockSTA = true
		}
		if g.rng.Float64() < p.BlockSTDFrac {
			in.BlockSTD = true
		}
		if g.rng.Float64() < p.BlockOvStFrac {
			in.BlockOverlap = true
		}
	}
}

func (g *Generator) genStore(in *trace.Inst, st *pcStatic) {
	p := &g.p
	in.Kind = trace.Store
	in.Size = 8
	in.Addr, _ = g.dataAddr()
	if st.mis < p.MisalignFrac {
		in.Misaligned = true
		in.Addr = (in.Addr &^ 63) | 1
	}
	if st.split < p.SplitFrac {
		in.Addr = (in.Addr &^ 63) + 60
	}
	g.sinceStore = 0
}

// splitmix64 is the standard avalanche mixer; it gives every static
// instruction (identified by PC) stable pseudo-random properties: its kind,
// and for branches the direction bias, data-dependence, and fixed target.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Salts for the independent static properties of an instruction. Each
// property uses its own salted hash so conditioning on one (e.g. "this PC
// is a branch") does not bias another (e.g. its direction).
const (
	saltKind uint64 = iota + 1
	saltDirection
	saltDataDep
	saltJump
	saltTarget
	saltLoopEdge
	saltLCP
	saltMisalign
	saltSplit
	saltLoop
	saltTrip
	saltSkip
)

// staticU01 returns a stable uniform [0,1) value for (pc, salt).
func staticU01(pc, salt uint64) float64 {
	return float64(splitmix64(pc^salt*0x9E3779B97F4A7C15)>>11) / float64(1<<53)
}

// staticU64 returns a stable 64-bit hash for (pc, salt).
func staticU64(pc, salt uint64) uint64 {
	return splitmix64(pc ^ salt*0x9E3779B97F4A7C15)
}

// genBranch models four static branch classes, each a fixed property of the
// branch site (so the predictor and BTB can learn what real code lets them
// learn):
//
//   - data-dependent conditionals (BranchEntropy of sites): coin-flip
//     outcomes — these are what drives BrMisPr;
//   - loop back-edges (LoopFrac of the rest): taken until a fixed per-site
//     trip count expires, mispredicted roughly once per loop exit;
//   - far jumps/calls (JumpProb of the rest): always taken to a fixed
//     target — these spread execution over the code footprint;
//   - forward conditionals (the remainder): strongly biased per site
//     (0.9 taken or 0.1 taken), skipping a short fixed distance ahead.
func (g *Generator) genBranch(in *trace.Inst) {
	p := &g.p
	in.Kind = trace.Branch
	pc := in.PC

	switch {
	case staticU01(pc, saltDataDep) < p.BranchEntropy:
		in.Taken = g.rng.Float64() < 0.5
		if in.Taken {
			g.skipForward(pc)
		}
	case staticU01(pc, saltLoop) < p.LoopFrac:
		if g.loopPC != pc {
			// Entering the loop: fixed trip count for this back edge.
			g.loopPC = pc
			g.loopLeft = 4 + staticU64(pc, saltTrip)%48
		}
		if g.loopLeft > 0 {
			g.loopLeft--
			in.Taken = true
			back := 16 + staticU64(pc, saltLoopEdge)%256
			if back > g.pc {
				g.pc = 0
			} else {
				g.pc -= back
			}
		} else {
			// Loop exit: fall through and forget the loop.
			in.Taken = false
			g.loopPC = 0
		}
	case staticU01(pc, saltJump) < p.JumpProb:
		in.Taken = true
		g.pc = (staticU64(pc, saltTarget) % uint64(p.CodeFootprint)) &^ 15
	default:
		bias := 0.1
		if staticU01(pc, saltDirection) < p.BranchTakenProb {
			bias = 0.9
		}
		in.Taken = g.rng.Float64() < bias
		if in.Taken {
			g.skipForward(pc)
		}
	}
	if in.Taken {
		in.Target = g.codeBase + g.pc
	}
}

// skipForward advances the PC by a short fixed per-site distance, wrapping
// at the code footprint.
func (g *Generator) skipForward(pc uint64) {
	skip := 8 + staticU64(pc, saltSkip)%120
	g.pc += skip
	if g.pc >= uint64(g.p.CodeFootprint) {
		g.pc = 0
	}
}

// jitter returns a copy of p with bounded multiplicative noise applied to
// the continuous knobs. The model tree sees this as within-class spread;
// without it every section in a phase would be an identical point and the
// leaf regressions would be degenerate.
func jitter(p Params, rng *xrand.Rand) Params {
	mul := func(v float64, spread float64) float64 {
		return v * (1 + spread*(2*rng.Float64()-1))
	}
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	q := p
	q.ColdFrac = clamp01(mul(p.ColdFrac, 0.20))
	q.FreshPageFrac = clamp01(mul(p.FreshPageFrac, 0.40))
	q.DataFootprint = int64(mul(float64(p.DataFootprint), 0.30))
	if q.DataFootprint < 4096 {
		q.DataFootprint = 4096
	}
	q.CodeFootprint = int64(mul(float64(p.CodeFootprint), 0.30))
	if q.CodeFootprint < 1024 {
		q.CodeFootprint = 1024
	}
	if p.HotFootprint > 0 {
		q.HotFootprint = int64(mul(float64(p.HotFootprint), 0.25))
		if q.HotFootprint < 4096 {
			q.HotFootprint = 4096
		}
	}
	q.LoadFrac = clamp01(mul(p.LoadFrac, 0.15))
	q.StoreFrac = clamp01(mul(p.StoreFrac, 0.15))
	q.BranchFrac = clamp01(mul(p.BranchFrac, 0.15))
	// Renormalize if the mix overflows.
	if s := q.LoadFrac + q.StoreFrac + q.BranchFrac; s > 0.95 {
		q.LoadFrac *= 0.95 / s
		q.StoreFrac *= 0.95 / s
		q.BranchFrac *= 0.95 / s
	}
	q.BranchEntropy = clamp01(mul(p.BranchEntropy, 0.25))
	// DepNearFrac modulates how much latency the out-of-order core hides —
	// an effect the counters cannot observe — so its spread is kept small:
	// it is the paper's irreducible error term, not useful signal.
	q.DepNearFrac = clamp01(mul(p.DepNearFrac, 0.08))
	q.LCPFrac = clamp01(mul(p.LCPFrac, 0.30))
	q.MisalignFrac = clamp01(mul(p.MisalignFrac, 0.30))
	q.SplitFrac = clamp01(mul(p.SplitFrac, 0.30))
	q.BlockSTAFrac = clamp01(mul(p.BlockSTAFrac, 0.30))
	q.BlockSTDFrac = clamp01(mul(p.BlockSTDFrac, 0.30))
	q.BlockOvStFrac = clamp01(mul(p.BlockOvStFrac, 0.30))
	return q
}

// SectionSource yields, per call, the generator for the next section of a
// benchmark, walking its phases in order. Parameters are re-jittered every
// section, but the generator's streaming state persists across the
// sections of a phase, as it would in a real continuous execution. It
// reports the phase index alongside so callers can label sections.
type SectionSource struct {
	bench    Benchmark
	seed     int64
	jrng     *xrand.Rand
	phase    int
	inPhase  int
	produced int
	gen      *Generator // persistent within the current phase
	genPhase int        // phase gen was created for
}

// NewSectionSource builds a section source for the benchmark.
func NewSectionSource(b Benchmark, seed int64) *SectionSource {
	return &SectionSource{
		bench:    b,
		seed:     seed,
		jrng:     xrand.New(seed ^ 0x5DEECE66D),
		genPhase: -1,
	}
}

// Next returns a generator for the next section and its phase index, or
// (nil, -1) when the benchmark is exhausted.
func (s *SectionSource) Next() (*Generator, int) {
	for s.phase < len(s.bench.Phases) && s.inPhase >= s.bench.Phases[s.phase].Sections {
		s.phase++
		s.inPhase = 0
	}
	if s.phase >= len(s.bench.Phases) {
		return nil, -1
	}
	p := jitter(s.bench.Phases[s.phase].Params, s.jrng)
	if s.gen == nil || s.genPhase != s.phase {
		s.gen = NewGenerator(p, s.seed+int64(s.produced)*7919+int64(s.phase))
		s.genPhase = s.phase
	} else {
		s.gen.SetParams(p)
	}
	s.inPhase++
	s.produced++
	return s.gen, s.phase
}
