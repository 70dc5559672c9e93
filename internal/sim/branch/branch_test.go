package branch

import (
	"math/rand"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{HistoryBits: 0, BTBEntries: 16},
		{HistoryBits: 30, BTBEntries: 16},
		{HistoryBits: 8, BTBEntries: 0},
		{HistoryBits: 8, BTBEntries: 100}, // not a power of two
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestLearnsBiasedBranch(t *testing.T) {
	p := New(DefaultConfig())
	const pc, target = 0x4000, 0x4100
	wrong := 0
	for i := 0; i < 1000; i++ {
		if !p.Lookup(pc, target, true) {
			wrong++
		}
	}
	// After warm-up, an always-taken branch with a fixed target should be
	// almost perfectly predicted.
	if wrong > 5 {
		t.Errorf("always-taken branch mispredicted %d/1000 times", wrong)
	}
}

func TestLearnsAlternatingPattern(t *testing.T) {
	p := New(DefaultConfig())
	const pc, target = 0x5000, 0x5100
	wrong := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if !p.Lookup(pc, target, taken) && i > 100 {
			wrong++
		}
	}
	// gshare's history captures a strict alternation.
	if wrong > 20 {
		t.Errorf("alternating branch mispredicted %d times after warmup", wrong)
	}
}

func TestRandomBranchNearHalf(t *testing.T) {
	p := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	const pc, target = 0x6000, 0x6100
	wrong := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if !p.Lookup(pc, target, rng.Intn(2) == 0) {
			wrong++
		}
	}
	rate := float64(wrong) / n
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random branch mispredict rate %v, want ~0.5", rate)
	}
}

func TestBTBTargetMismatch(t *testing.T) {
	p := New(DefaultConfig())
	const pc = 0x7000
	// Train with one target, then change it: the first lookup with the
	// new target must be a mispredict even though the direction is right.
	for i := 0; i < 50; i++ {
		p.Lookup(pc, 0x7100, true)
	}
	if p.Lookup(pc, 0x7200, true) {
		t.Error("changed target predicted correctly")
	}
	// After retraining, the new target is learned.
	if !p.Lookup(pc, 0x7200, true) {
		t.Error("new target not learned after one update")
	}
}

func TestNotTakenNeedsNoBTB(t *testing.T) {
	p := New(DefaultConfig())
	const pc = 0x8000
	// Train not-taken.
	for i := 0; i < 20; i++ {
		p.Lookup(pc, 0, false)
	}
	if !p.Lookup(pc, 0, false) {
		t.Error("well-trained not-taken branch mispredicted")
	}
}

func TestStats(t *testing.T) {
	p := New(DefaultConfig())
	p.Lookup(1, 2, true)
	if p.Branches != 1 {
		t.Errorf("Branches = %d", p.Branches)
	}
	p.ResetStats()
	if p.Branches != 0 || p.Mispredicts != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestResetClearsTraining(t *testing.T) {
	p := New(DefaultConfig())
	const pc, tgt = 0x9000, 0x9100
	for i := 0; i < 100; i++ {
		p.Lookup(pc, tgt, true)
	}
	p.Reset()
	// After reset the BTB is cold: the taken branch cannot have the right
	// target.
	if p.Lookup(pc, tgt, true) {
		t.Error("prediction survived Reset")
	}
}

func TestDistinctBranchesIndependent(t *testing.T) {
	p := New(DefaultConfig())
	// Two branches with opposite biases; both should be learned.
	wrong := 0
	for i := 0; i < 2000; i++ {
		if !p.Lookup(0xA000, 0xA100, true) && i > 100 {
			wrong++
		}
		if !p.Lookup(0xB000, 0, false) && i > 100 {
			wrong++
		}
	}
	if wrong > 100 {
		t.Errorf("opposite-bias branches mispredicted %d times", wrong)
	}
}
