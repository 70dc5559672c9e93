// Package mem models the memory-subsystem structures of a Core-2-Duo-like
// processor: set-associative LRU caches (split 32 KB L1 instruction and
// data caches over a shared 4 MB L2) and the translation hierarchy (a tiny
// L0 load DTLB in front of the main DTLB, plus an ITLB).
//
// These structures supply the miss events of the paper's Table I: L1DM,
// L1IM, L2M, DtlbL0LdM, DtlbLdM, DtlbLdReM, Dtlb and ItlbM. The timing
// consequences of the misses are modeled separately in internal/sim/cpu.
package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name  string
	SizeB int64 // total capacity in bytes
	Ways  int   // associativity
	LineB int64 // line size in bytes
}

// Validate checks structural soundness (power-of-two geometry, etc.).
func (c CacheConfig) Validate() error {
	if c.SizeB <= 0 || c.Ways <= 0 || c.LineB <= 0 {
		return fmt.Errorf("mem: cache %q has non-positive geometry", c.Name)
	}
	if c.SizeB%(int64(c.Ways)*c.LineB) != 0 {
		return fmt.Errorf("mem: cache %q size %d not divisible by ways*line", c.Name, c.SizeB)
	}
	sets := c.SizeB / (int64(c.Ways) * c.LineB)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: cache %q has %d sets, not a power of two", c.Name, sets)
	}
	if c.LineB&(c.LineB-1) != 0 {
		return fmt.Errorf("mem: cache %q line size %d not a power of two", c.Name, c.LineB)
	}
	return nil
}

// lruSets is the flat storage shared by Cache and TLB: all tags live in
// one contiguous array with a fixed per-set stride of ways entries, plus a
// per-set occupancy count. Set s owns tags[s*ways : s*ways+occ[s]], kept in
// MRU..LRU order by an inline move-to-front. Compared to a slice of
// per-set slices this removes one pointer indirection per lookup, keeps
// neighbouring sets on the same cache lines of the *host* machine, and
// never allocates after construction (fills bump occ instead of append).
type lruSets struct {
	tags []uint64 // nsets*ways tags, set-major
	occ  []int32  // resident ways per set
	ways int
	mask uint64 // nsets-1
}

func newLRUSets(nsets, ways int) lruSets {
	return lruSets{
		tags: make([]uint64, nsets*ways),
		occ:  make([]int32, nsets),
		ways: ways,
		mask: uint64(nsets - 1),
	}
}

// access looks key up in its set, moves it to front on a hit, installs it
// as MRU (evicting the LRU tag if the set is full) on a miss, and reports
// whether it hit. It is split into tryHit and install so both halves stay
// within the inlining budget: the per-access call from the cache and TLB
// slow paths then costs no extra call frame.
func (a *lruSets) access(key uint64) bool {
	if a.tryHit(key) {
		return true
	}
	a.install(key)
	return false
}

// tryHit scans key's set and moves it to front on a hit. The
// move-to-front is a hand-rolled shift: with 4-16 resident ways the
// element loop beats a memmove call. Warmed-up full sets (the steady
// state of every demand-access benchmark) take a specialized scan over a
// fixed-size array pointer, which lets the compiler drop all per-element
// bounds checks and unroll.
func (a *lruSets) tryHit(key uint64) bool {
	s := key & a.mask
	n := int(a.occ[s])
	base := int(s) * a.ways
	if n == 8 && a.ways == 8 {
		return tryHitFull((*[8]uint64)(a.tags[base:base+8]), key)
	}
	if n == 16 && a.ways == 16 {
		return tryHitFull16((*[16]uint64)(a.tags[base:base+16]), key)
	}
	tags := a.tags[base : base+a.ways]
	if n > len(tags) {
		// Never taken (occupancy is bounded by ways); stating it lets the
		// compiler drop the per-element bounds checks below.
		n = len(tags)
	}
	if n > 0 && tags[0] == key {
		// Already MRU: hit with no movement. Prefetch re-fills of a line
		// that is still the newest in its set land here constantly.
		return true
	}
	for i := 1; i < n; i++ {
		if tags[i] == key {
			for ; i > 0; i-- {
				tags[i] = tags[i-1]
			}
			tags[0] = key
			return true
		}
	}
	return false
}

func tryHitFull(tags *[8]uint64, key uint64) bool {
	if tags[0] == key {
		return true
	}
	for i := 1; i < 8; i++ {
		if tags[i] == key {
			for ; i > 0; i-- {
				tags[i] = tags[i-1]
			}
			tags[0] = key
			return true
		}
	}
	return false
}

func tryHitFull16(tags *[16]uint64, key uint64) bool {
	if tags[0] == key {
		return true
	}
	for i := 1; i < 16; i++ {
		if tags[i] == key {
			for ; i > 0; i-- {
				tags[i] = tags[i-1]
			}
			tags[0] = key
			return true
		}
	}
	return false
}

// install makes key the MRU tag of its set, evicting the LRU tag if the
// set is full. It must only be called when key is absent from the set.
func (a *lruSets) install(key uint64) {
	s := key & a.mask
	n := int(a.occ[s])
	base := int(s) * a.ways
	tags := a.tags[base : base+a.ways]
	if n < a.ways {
		a.occ[s] = int32(n + 1)
	} else {
		n--
	}
	if n > len(tags) {
		n = len(tags)
	}
	for i := n; i > 0; i-- {
		tags[i] = tags[i-1]
	}
	tags[0] = key
}

// probe reports presence without touching replacement order.
func (a *lruSets) probe(key uint64) bool {
	s := key & a.mask
	base := int(s) * a.ways
	tags := a.tags[base : base+int(a.occ[s])]
	for _, tag := range tags {
		if tag == key {
			return true
		}
	}
	return false
}

// reset empties every set.
func (a *lruSets) reset() {
	for i := range a.occ {
		a.occ[i] = 0
	}
}

// noLine is the "no cached fast-path line" sentinel for the repeated-
// access fast paths below. It is unreachable as a real line or page
// number for any geometry with lines/pages of at least two bytes (every
// geometry modeled here); using a sentinel instead of a validity flag
// keeps the fast-path wrappers under the compiler's inlining budget.
const noLine = ^uint64(0)

// Cache is a set-associative cache with true-LRU replacement.
//
// Implementation: tags are stored flat (see lruSets) with each set a small
// contiguous run ordered most- to least-recently used; with the 8-16 way
// associativities modeled here a move-to-front scan beats fancier
// structures.
type Cache struct {
	cfg       CacheConfig
	sets      lruSets
	lineShift uint
	// lastLine (noLine when invalid) is the line of the most recent
	// Access. It is by construction at the MRU position of its set, so
	// repeating the access is a guaranteed hit that changes no replacement
	// state and can skip the set scan entirely. Sequential fetch streams
	// hit this path ~15 times per 16 instructions. A Fill of a different
	// line into the same set displaces it and must invalidate.
	lastLine uint64
	// Stats
	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache. It panics on an invalid configuration, because
// configurations are static program data here.
func NewCache(cfg CacheConfig) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeB / (int64(cfg.Ways) * cfg.LineB)
	return &Cache{
		cfg:       cfg,
		sets:      newLRUSets(int(nsets), cfg.Ways),
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineB))),
		lastLine:  noLine,
	}
}

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return len(c.sets.occ) }

// Access looks up the line containing addr, fills it on a miss, and
// reports whether the access hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	line := addr >> c.lineShift
	if line == c.lastLine {
		return true
	}
	return c.accessSlow(line)
}

// accessSlow is kept out of line so the Access wrapper stays within the
// inlining budget; the set scan dominates this path anyway.
//
//go:noinline
func (c *Cache) accessSlow(line uint64) bool {
	c.lastLine = line
	if c.sets.tryHit(line) {
		return true
	}
	c.sets.install(line)
	c.Misses++
	return false
}

// Fill installs the line containing addr as MRU without touching the
// access/miss statistics. It models fills from hardware prefetchers, which
// the PMU's demand-miss events do not count.
func (c *Cache) Fill(addr uint64) {
	line := addr >> c.lineShift
	c.sets.access(line)
	if line != c.lastLine && line&c.sets.mask == c.lastLine&c.sets.mask {
		// The fill took over the MRU slot of lastLine's set.
		c.lastLine = noLine
	}
}

// Probe reports whether the line containing addr is present without
// updating replacement state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	return c.sets.probe(addr >> c.lineShift)
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	c.sets.reset()
	c.lastLine = noLine
	c.Accesses, c.Misses = 0, 0
}

// ResetStats clears statistics but keeps contents (used between sampling
// sections so cache warmth carries over, as on real hardware).
func (c *Cache) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// MissRate returns Misses/Accesses (0 when idle).
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name    string
	Entries int
	Ways    int
	PageB   int64
}

// Validate checks structural soundness.
func (c TLBConfig) Validate() error {
	if c.Entries <= 0 || c.Ways <= 0 || c.PageB <= 0 {
		return fmt.Errorf("mem: TLB %q has non-positive geometry", c.Name)
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("mem: TLB %q entries %d not divisible by ways %d", c.Name, c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: TLB %q has %d sets, not a power of two", c.Name, sets)
	}
	if c.PageB&(c.PageB-1) != 0 {
		return fmt.Errorf("mem: TLB %q page size %d not a power of two", c.Name, c.PageB)
	}
	return nil
}

// TLB is a set-associative LRU translation buffer over page numbers. It
// owns its flattened set storage directly (the same lruSets layout the
// caches use) rather than delegating through an inner *Cache, so a
// translation costs one shift and one flat-array scan with no second
// pointer hop.
type TLB struct {
	cfg       TLBConfig
	sets      lruSets
	pageShift uint
	// lastPage (noLine when invalid) is the same repeated-access fast
	// path the caches use: after any Access the translated page sits at
	// MRU of its set, so a back-to-back translation of the same page is a
	// hit with no state change. Nothing but Access mutates TLB sets, so
	// only Reset invalidates it.
	lastPage uint64
	accesses uint64
	misses   uint64
}

// NewTLB builds a TLB; it panics on an invalid configuration.
func NewTLB(cfg TLBConfig) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{
		cfg:       cfg,
		sets:      newLRUSets(cfg.Entries/cfg.Ways, cfg.Ways),
		pageShift: uint(bits.TrailingZeros64(uint64(cfg.PageB))),
		lastPage:  noLine,
	}
}

// Access translates addr, filling on a miss, and reports whether it hit.
func (t *TLB) Access(addr uint64) bool {
	t.accesses++
	page := addr >> t.pageShift
	if page == t.lastPage {
		return true
	}
	return t.accessSlow(page)
}

//go:noinline
func (t *TLB) accessSlow(page uint64) bool {
	t.lastPage = page
	if t.sets.tryHit(page) {
		return true
	}
	t.sets.install(page)
	t.misses++
	return false
}

// Probe reports presence without side effects.
func (t *TLB) Probe(addr uint64) bool { return t.sets.probe(addr >> t.pageShift) }

// Reset clears contents and statistics.
func (t *TLB) Reset() {
	t.sets.reset()
	t.lastPage = noLine
	t.accesses, t.misses = 0, 0
}

// ResetStats clears statistics only.
func (t *TLB) ResetStats() { t.accesses, t.misses = 0, 0 }

// Accesses returns the access count.
func (t *TLB) Accesses() uint64 { return t.accesses }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }
