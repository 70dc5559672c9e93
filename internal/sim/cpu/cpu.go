package cpu

import (
	"repro/internal/xrand"

	"repro/internal/sim/branch"
	"repro/internal/sim/mem"
	"repro/internal/sim/trace"
)

// derived holds config-invariant values hoisted out of the per-instruction
// path at construction: the issue-width reciprocal, the dependency
// serialization table, and every penalty-times-exposure product the timing
// model charges. Each field is the result of exactly the arithmetic
// expression the hot path previously evaluated per event — the same
// IEEE-754 operations on the same operands, performed once — so cycle
// accumulation stays bit-identical to computing them inline.
type derived struct {
	invIssue    float64    // 1 / IssueWidth
	depSer      [5]float64 // DepSerialization / dist for dist 1..4
	feMem       float64    // MemLatency * FrontEndExposure
	feL2Hit     float64    // L2HitLatency * FrontEndExposure
	feWalk      float64    // WalkPenalty * FrontEndExposure
	walkMLP     float64    // WalkPenalty * MLPResidual
	memMLP      float64    // MemLatency * MLPResidual
	memIsolated float64    // MemLatency * (1 - ROBWindow/IssueWidth/MemLatency)
	l2HitOOO    float64    // L2HitLatency * OOOHidingResidual
	memStore    float64    // MemLatency * StoreExposure
	l2HitStore  float64    // L2HitLatency * StoreExposure
	walkStore   float64    // WalkPenalty * StoreExposure
	mispShadow  float64    // MispredictPenalty * ShadowResidual
	lineMask    uint64     // L1D line size - 1, for split-access detection
}

func deriveConfig(cfg Config, l1dLineB int64) derived {
	d := derived{
		invIssue:    1 / cfg.IssueWidth,
		feMem:       cfg.MemLatency * cfg.FrontEndExposure,
		feL2Hit:     cfg.L2HitLatency * cfg.FrontEndExposure,
		feWalk:      cfg.WalkPenalty * cfg.FrontEndExposure,
		walkMLP:     cfg.WalkPenalty * cfg.MLPResidual,
		memMLP:      cfg.MemLatency * cfg.MLPResidual,
		memIsolated: cfg.MemLatency * (1 - float64(cfg.ROBWindow)/cfg.IssueWidth/cfg.MemLatency),
		l2HitOOO:    cfg.L2HitLatency * cfg.OOOHidingResidual,
		memStore:    cfg.MemLatency * cfg.StoreExposure,
		l2HitStore:  cfg.L2HitLatency * cfg.StoreExposure,
		walkStore:   cfg.WalkPenalty * cfg.StoreExposure,
		mispShadow:  cfg.MispredictPenalty * cfg.ShadowResidual,
		lineMask:    uint64(l1dLineB) - 1,
	}
	for dist := 1; dist <= 4; dist++ {
		d.depSer[dist] = cfg.DepSerialization / float64(dist)
	}
	return d
}

// splitsLine reports whether [addr, addr+size) crosses a line boundary,
// with mask = lineB-1 (lineB is a validated power of two). Callers check
// that the access is a load or store of non-zero size.
func splitsLine(addr, size, mask uint64) bool {
	return addr&^mask != (addr+size-1)&^mask
}

// CPU is the trace-driven core model. It owns the memory hierarchy and
// branch predictor, processes one instruction per Step, and accumulates
// cycles and PMU counters.
type CPU struct {
	cfg Config
	drv derived
	Mem *mem.Hierarchy
	BP  *branch.Predictor

	ctr Counters
	// bd is the ground-truth cycle breakdown, reset with the counters.
	bd Breakdown
	// retired is the lifetime retired-instruction index (never reset), used
	// for ROB-window overlap decisions across section boundaries.
	retired uint64
	// lastLongMiss is the retired index of the most recent long-latency
	// (memory) miss; misses within ROBWindow of it may overlap.
	lastLongMiss uint64
	// haveLongMiss records whether lastLongMiss is valid yet.
	haveLongMiss bool
	// lastDataAddr seeds wrong-path load addresses.
	lastDataAddr uint64
	rng          *xrand.Rand
}

// New builds a core with the given timing config, cache geometry and
// branch-predictor geometry.
func New(cfg Config, geom mem.Geometry, bp branch.Config) *CPU {
	return &CPU{
		cfg: cfg,
		drv: deriveConfig(cfg, geom.L1D.LineB),
		Mem: mem.NewHierarchy(geom),
		BP:  branch.New(bp),
		rng: xrand.New(cfg.Seed),
	}
}

// Counters returns a snapshot of the PMU state.
func (c *CPU) Counters() Counters { return c.ctr }

// CycleBreakdown returns the ground-truth cycle attribution accumulated
// since the last section reset. Real PMUs cannot produce this; the
// simulator can, which is what lets the repository check the model tree's
// "how much" answers against truth (the groundtruth experiment).
func (c *CPU) CycleBreakdown() Breakdown { return c.bd }

// ResetSection zeroes the PMU counters and cycle accumulator while keeping
// all micro-architectural state (cache contents, predictor training) warm,
// exactly like reprogramming counters between sampling sections on real
// hardware.
func (c *CPU) ResetSection() {
	c.ctr.Reset()
	c.bd.Reset()
}

// Retired returns the lifetime retired instruction count.
func (c *CPU) Retired() uint64 { return c.retired }

// inShadow reports whether the current instruction falls within one ROB
// window of the last long-latency miss, i.e. whether a new event can hide
// under (or overlap with) that miss.
func (c *CPU) inShadow() bool {
	return c.haveLongMiss && c.retired-c.lastLongMiss < c.cfg.ROBWindow
}

// noteLongMiss records a long-latency miss at the current instruction.
func (c *CPU) noteLongMiss() {
	c.lastLongMiss = c.retired
	c.haveLongMiss = true
}

// charge books cycles to a ground-truth category and returns them, so
// call sites can simultaneously accumulate the per-instruction cost.
func (c *CPU) charge(cat CycleCategory, cycles float64) float64 {
	c.bd[cat] += cycles
	return cycles
}

// Step retires one instruction, charging cycles and counting events.
//
// The common no-event path touches only the instruction counter, the base
// cycle cost and the fetch lookup; every event penalty comes precomputed
// from the derived table, and the kind-specific work is split into
// separate load/store/branch paths so each only tests its own hazards.
func (c *CPU) Step(in *trace.Inst) {
	c.ctr.Insts++

	// Base cost: superscalar issue slot plus dependency serialization.
	base := c.drv.invIssue
	if dep := in.DepDist; dep > 0 && dep <= 4 {
		base += c.drv.depSer[dep]
	}
	c.bd[CatBase] += base
	cost := base

	// Front end: every instruction is fetched. Instruction-side stalls
	// cannot be hidden by the out-of-order core — a starved front end
	// starves everything — so exposure stays high and an I-side L2 miss
	// pays (nearly) full memory latency. FetchFast inlines the dominant
	// same-line repeat (an all-hit with no stall terms); only line
	// transitions pay the full hierarchy walk.
	if !c.Mem.FetchFast(in.PC) {
		fr := c.Mem.Fetch(in.PC)
		if fr.L1Miss {
			c.ctr.L1IMiss++
			if fr.L2Miss {
				cost += c.charge(CatFrontEnd, c.drv.feMem)
				c.noteLongMiss()
			} else {
				cost += c.charge(CatFrontEnd, c.drv.feL2Hit)
			}
		}
		if fr.ItlbMiss {
			c.ctr.ItlbMiss++
			cost += c.charge(CatFrontEnd, c.drv.feWalk)
		}
	}
	if in.LCP {
		c.ctr.LCPStalls++
		cost += c.charge(CatLCP, c.cfg.LCPPenalty)
	}

	switch in.Kind {
	case trace.Load:
		cost += c.stepLoad(in)
	case trace.Store:
		cost += c.stepStore(in)
	case trace.Branch:
		cost += c.stepBranch(in)
	}

	c.ctr.Cycles += cost
	c.retired++
}

// StepBlock retires every instruction of the block in order: the
// block-batched equivalent of calling Step per record, used by the
// section-collection loop and Run so the per-instruction work is a direct
// call inside one tight loop.
func (c *CPU) StepBlock(insts []trace.Inst) {
	for i := range insts {
		c.Step(&insts[i])
	}
}

func (c *CPU) stepLoad(in *trace.Inst) float64 {
	c.ctr.Loads++
	c.lastDataAddr = in.Addr
	cost := 0.0

	dr := c.Mem.Data(in.Addr, true)
	if dr.Dtlb0Miss {
		c.ctr.Dtlb0LdMiss++
		cost += c.charge(CatDTLB, c.cfg.Dtlb0Penalty)
	}
	if dr.DtlbMiss {
		c.ctr.DtlbLdMiss++
		c.ctr.DtlbLdRetMiss++
		c.ctr.DtlbAnyMiss++
		// Page walks overlap with an outstanding memory miss.
		if c.inShadow() {
			cost += c.charge(CatDTLB, c.drv.walkMLP)
		} else {
			cost += c.charge(CatDTLB, c.cfg.WalkPenalty)
		}
	}
	if dr.L1Miss {
		c.ctr.L1DMiss++
		if dr.L2Miss {
			c.ctr.L2Miss++
			dependent := in.DepDist > 0 && in.DepDist <= 8
			switch {
			case dependent:
				// A nearby consumer serializes the miss: full latency.
				cost += c.charge(CatL2Miss, c.cfg.MemLatency)
			case c.inShadow():
				// Independent miss under an outstanding miss: MLP overlap.
				cost += c.charge(CatL2Miss, c.drv.memMLP)
			default:
				// Independent, isolated miss: the OOO window hides a
				// sliver while the ROB drains, then stalls.
				cost += c.charge(CatL2Miss, c.drv.memIsolated)
			}
			c.noteLongMiss()
		} else {
			// L1 miss, L2 hit: mostly hidden unless a consumer is close.
			if in.DepDist > 0 && in.DepDist <= 4 {
				cost += c.charge(CatL1DMiss, c.cfg.L2HitLatency)
			} else {
				cost += c.charge(CatL1DMiss, c.drv.l2HitOOO)
			}
		}
	}

	// Load-block and alignment hazards.
	if in.BlockSTA {
		c.ctr.LdBlockSTA++
		cost += c.charge(CatBlocks, c.cfg.LdBlockSTAPenalty)
	}
	if in.BlockSTD {
		c.ctr.LdBlockSTD++
		cost += c.charge(CatBlocks, c.cfg.LdBlockSTDPenalty)
	}
	if in.BlockOverlap {
		c.ctr.LdBlockOvSt++
		cost += c.charge(CatBlocks, c.cfg.LdBlockOvStPenalty)
	}
	if in.Misaligned {
		c.ctr.Misaligned++
		cost += c.charge(CatAlign, c.cfg.MisalignPenalty)
	}
	if in.Size != 0 && splitsLine(in.Addr, uint64(in.Size), c.drv.lineMask) {
		c.ctr.SplitLoads++
		cost += c.charge(CatAlign, c.cfg.SplitLoadPenalty)
	}
	return cost
}

func (c *CPU) stepStore(in *trace.Inst) float64 {
	c.ctr.Stores++
	c.lastDataAddr = in.Addr
	cost := 0.0

	dr := c.Mem.Data(in.Addr, false)
	if dr.DtlbMiss {
		c.ctr.DtlbAnyMiss++
		cost += c.charge(CatDTLB, c.drv.walkStore)
	}
	if dr.L1Miss {
		// Store misses drain through the store buffer; they expose only a
		// fraction of their latency and never count in the retired-load
		// miss events.
		if dr.L2Miss {
			cost += c.charge(CatStore, c.drv.memStore)
			c.noteLongMiss()
		} else {
			cost += c.charge(CatStore, c.drv.l2HitStore)
		}
	}
	if in.Misaligned {
		c.ctr.Misaligned++
		cost += c.charge(CatAlign, c.cfg.MisalignPenalty)
	}
	if in.Size != 0 && splitsLine(in.Addr, uint64(in.Size), c.drv.lineMask) {
		c.ctr.SplitStores++
		cost += c.charge(CatAlign, c.cfg.SplitStorePenalty)
	}
	return cost
}

func (c *CPU) stepBranch(in *trace.Inst) float64 {
	c.ctr.Branches++
	cost := 0.0
	if !c.BP.Lookup(in.PC, in.Target, in.Taken) {
		c.ctr.BrMispred++
		// A flush in the shadow of a pending miss costs little: the back
		// end was stalled anyway. Exposed flushes pay the full refill.
		if c.inShadow() {
			cost += c.charge(CatBranch, c.drv.mispShadow)
		} else {
			cost += c.charge(CatBranch, c.cfg.MispredictPenalty)
		}
		c.simulateWrongPath(in)
	}
	return cost
}

// simulateWrongPath models speculative execution past a mispredicted
// branch: a few wrong-path fetches and loads that perturb the I-side and
// TLB structures and bump the speculative-inclusive counters (L1I_MISSES,
// DTLB_MISSES.MISS_LD) without affecting the retired-only ones — the same
// divergence the paper's Table I events exhibit on silicon.
func (c *CPU) simulateWrongPath(in *trace.Inst) {
	for i := 0; i < c.cfg.WrongPathFetches; i++ {
		// Wrong-path fetch runs down the not-taken (or stale-target) path:
		// nearby code, within a few KB of the branch.
		wrongPC := in.PC + uint64(1+c.rng.Intn(64))<<6
		fr := c.Mem.Fetch(wrongPC)
		if fr.L1Miss {
			c.ctr.L1IMiss++
		}
		if fr.ItlbMiss {
			c.ctr.ItlbMiss++ // conservatively counted, like the raw event
		}
	}
	for i := 0; i < c.cfg.WrongPathLoads; i++ {
		wrongAddr := c.lastDataAddr + uint64(c.rng.Intn(1<<16))
		dr := c.Mem.Data(wrongAddr, true)
		if dr.Dtlb0Miss {
			c.ctr.Dtlb0LdMiss++
		}
		if dr.DtlbMiss {
			c.ctr.DtlbLdMiss++ // speculative walk: MISS_LD but not retired
			c.ctr.DtlbAnyMiss++
		}
	}
}

// Run drains a stream through the core, returning the number of
// instructions retired. The stream is consumed in blocks (see
// trace.Blocked) so producers that batch — workload generators, slice
// replays — cost one dispatch per block rather than per instruction.
func (c *CPU) Run(s trace.Stream) uint64 {
	bs := trace.Blocked(s)
	var buf [trace.DefaultBlockLen]trace.Inst
	var n uint64
	for {
		k := bs.NextBlock(buf[:])
		if k == 0 {
			return n
		}
		c.StepBlock(buf[:k])
		n += uint64(k)
	}
}
