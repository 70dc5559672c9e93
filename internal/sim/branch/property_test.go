package branch_test

import (
	"testing"

	"repro/internal/proptest"
	"repro/internal/sim/branch"
)

type outcome struct {
	pc, target uint64
	taken      bool
}

func genOutcomes(r *proptest.Rand, n int) []outcome {
	// A handful of static branches, each with its own bias, re-executed in
	// random order: the regime a gshare predictor is built for.
	type site struct {
		pc, target uint64
		bias       float64
	}
	sites := make([]site, r.IntBetween(1, 12))
	for i := range sites {
		sites[i] = site{
			pc:     0x400000 + uint64(r.Intn(1<<12))*4,
			target: 0x400000 + uint64(r.Intn(1<<12))*4,
			bias:   r.Float64(),
		}
	}
	out := make([]outcome, n)
	for i := range out {
		s := sites[r.Intn(len(sites))]
		out[i] = outcome{pc: s.pc, target: s.target, taken: r.Bool(s.bias)}
	}
	return out
}

// TestPredictorStatsAndDeterminism: Branches counts every Lookup,
// Mispredicts never exceeds it, and two predictors fed the same sequence
// return identical per-branch results.
func TestPredictorStatsAndDeterminism(t *testing.T) {
	proptest.Run(t, "predictor-stats", 25, func(t *testing.T, r *proptest.Rand) {
		a := branch.New(branch.DefaultConfig())
		b := branch.New(branch.DefaultConfig())
		seq := genOutcomes(r, 2000)
		for i, o := range seq {
			ra := a.Lookup(o.pc, o.target, o.taken)
			rb := b.Lookup(o.pc, o.target, o.taken)
			if ra != rb {
				t.Fatalf("branch %d: predictors diverged", i)
			}
		}
		if a.Branches != uint64(len(seq)) {
			t.Fatalf("Branches = %d, want %d", a.Branches, len(seq))
		}
		if a.Mispredicts > a.Branches {
			t.Fatalf("Mispredicts %d > Branches %d", a.Mispredicts, a.Branches)
		}
		if a.Branches != b.Branches || a.Mispredicts != b.Mispredicts {
			t.Fatal("stats diverged between identical runs")
		}
	})
}

// TestPredictorLearnsMonotoneBranch: a single always-taken branch with a
// stable target is learned after a bounded warm-up — the tail of a long
// run is mispredict-free.
func TestPredictorLearnsMonotoneBranch(t *testing.T) {
	proptest.Run(t, "predictor-learns", 15, func(t *testing.T, r *proptest.Rand) {
		p := branch.New(branch.DefaultConfig())
		pc := 0x400000 + uint64(r.Intn(1<<12))*4
		target := 0x500000 + uint64(r.Intn(1<<12))*4
		for i := 0; i < 200; i++ {
			p.Lookup(pc, target, true)
		}
		p.ResetStats()
		for i := 0; i < 500; i++ {
			p.Lookup(pc, target, true)
		}
		if p.Mispredicts != 0 {
			t.Fatalf("warmed predictor mispredicted a monotone branch %d times", p.Mispredicts)
		}
	})
}

// TestPredictorResetRestoresInitialState: Reset returns the predictor to
// its constructed state — a fresh predictor and a reset one agree on an
// arbitrary subsequent sequence.
func TestPredictorResetRestoresInitialState(t *testing.T) {
	proptest.Run(t, "predictor-reset", 15, func(t *testing.T, r *proptest.Rand) {
		dirty := branch.New(branch.DefaultConfig())
		for _, o := range genOutcomes(r, 500) {
			dirty.Lookup(o.pc, o.target, o.taken)
		}
		dirty.Reset()
		fresh := branch.New(branch.DefaultConfig())
		for i, o := range genOutcomes(r, 500) {
			if dirty.Lookup(o.pc, o.target, o.taken) != fresh.Lookup(o.pc, o.target, o.taken) {
				t.Fatalf("branch %d: reset predictor diverged from fresh one", i)
			}
		}
	})
}
