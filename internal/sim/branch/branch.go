// Package branch models the branch prediction unit of the simulated core:
// a gshare direction predictor (global history XOR PC indexing a table of
// two-bit saturating counters) with a direct-mapped branch target buffer.
// It supplies the BrMisPr and BrPred events of the paper's Table I.
package branch

import "fmt"

// Config describes the predictor geometry.
type Config struct {
	// HistoryBits is the global-history length; the pattern table has
	// 2^HistoryBits two-bit counters.
	HistoryBits uint
	// BTBEntries is the number of direct-mapped target-buffer entries
	// (power of two).
	BTBEntries int
}

// DefaultConfig returns a predictor comparable to the Core 2 front end.
func DefaultConfig() Config {
	return Config{HistoryBits: 14, BTBEntries: 2048}
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.HistoryBits == 0 || c.HistoryBits > 24 {
		return fmt.Errorf("branch: history bits %d out of range (1..24)", c.HistoryBits)
	}
	if c.BTBEntries <= 0 || c.BTBEntries&(c.BTBEntries-1) != 0 {
		return fmt.Errorf("branch: BTB entries %d not a positive power of two", c.BTBEntries)
	}
	return nil
}

// Predictor is a gshare + BTB branch prediction unit.
type Predictor struct {
	cfg      Config
	pht      []uint8 // two-bit saturating counters
	history  uint64
	histMask uint64
	btbTag   []uint64
	btbTgt   []uint64
	btbMask  uint64
	// Stats
	Branches    uint64
	Mispredicts uint64
}

// New builds a predictor; it panics on an invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	size := 1 << cfg.HistoryBits
	p := &Predictor{
		cfg:      cfg,
		pht:      make([]uint8, size),
		histMask: uint64(size - 1),
		btbTag:   make([]uint64, cfg.BTBEntries),
		btbTgt:   make([]uint64, cfg.BTBEntries),
		btbMask:  uint64(cfg.BTBEntries - 1),
	}
	// Initialize counters weakly taken, the usual convention.
	for i := range p.pht {
		p.pht[i] = 2
	}
	return p
}

// Lookup predicts and then trains on the actual outcome, returning whether
// the prediction (direction and, for taken branches, target) was correct.
func (p *Predictor) Lookup(pc, target uint64, taken bool) bool {
	p.Branches++
	idx := (p.history ^ (pc >> 2)) & p.histMask
	predTaken := p.pht[idx] >= 2

	// Train the two-bit counter.
	if taken {
		if p.pht[idx] < 3 {
			p.pht[idx]++
		}
	} else {
		if p.pht[idx] > 0 {
			p.pht[idx]--
		}
	}
	// Update global history.
	p.history = (p.history << 1) & p.histMask
	if taken {
		p.history |= 1
	}

	correct := predTaken == taken
	if taken {
		// A taken branch also needs the right target from the BTB.
		b := (pc >> 2) & p.btbMask
		if p.btbTag[b] != pc || p.btbTgt[b] != target {
			correct = false
		}
		p.btbTag[b] = pc
		p.btbTgt[b] = target
	}
	if !correct {
		p.Mispredicts++
	}
	return correct
}

// Reset clears state and statistics.
func (p *Predictor) Reset() {
	for i := range p.pht {
		p.pht[i] = 2
	}
	for i := range p.btbTag {
		p.btbTag[i], p.btbTgt[i] = 0, 0
	}
	p.history = 0
	p.Branches, p.Mispredicts = 0, 0
}

// ResetStats clears statistics but preserves learned state.
func (p *Predictor) ResetStats() { p.Branches, p.Mispredicts = 0, 0 }
