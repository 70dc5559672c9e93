package ensemble_test

// Property tests for the bagged ensemble: the mean-of-members prediction
// contract (bit-for-bit), the trained ensemble's invariants, and
// determinism across the Jobs knob.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/mtree"
	"repro/internal/proptest"
)

func genEnsembleConfig(r *proptest.Rand) ensemble.Config {
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = r.IntBetween(10, 40)
	cfg.Smooth = r.Coin()
	return ensemble.Config{
		Trees:          r.IntBetween(2, 6),
		Tree:           cfg,
		SampleFraction: r.Range(0.5, 1),
		Seed:           r.Int63(),
	}
}

func genRow(r *proptest.Rand) dataset.Instance {
	return dataset.Instance{0, r.Range(0, 0.01), r.Range(0, 0.008), r.Range(0, 0.003)}
}

// TestPredictIsMeanOfMembers: Bagger.Predict equals the members' summed
// predictions in tree order divided by the count — exactly, not
// approximately, so any future reordering or reweighting of members is
// caught as a bit-level change.
func TestPredictIsMeanOfMembers(t *testing.T) {
	proptest.Run(t, "ensemble-mean", 8, func(t *testing.T, r *proptest.Rand) {
		d := proptest.PerfDataset(r, r.IntBetween(100, 250))
		b, err := ensemble.Train(d, genEnsembleConfig(r))
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		for i := 0; i < 20; i++ {
			row := genRow(r)
			sum := 0.0
			for _, tree := range b.Trees {
				sum += tree.Predict(row)
			}
			want := sum / float64(len(b.Trees))
			if got := b.Predict(row); got != want {
				t.Fatalf("row %d: Predict %v != member mean %v", i, got, want)
			}
		}
	})
}

// TestTrainInvariants: the trained ensemble has the requested member
// count and sane out-of-bag statistics.
func TestTrainInvariants(t *testing.T) {
	proptest.Run(t, "ensemble-train", 6, func(t *testing.T, r *proptest.Rand) {
		d := proptest.PerfDataset(r, r.IntBetween(100, 250))
		cfg := genEnsembleConfig(r)
		b, err := ensemble.Train(d, cfg)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		if len(b.Trees) != cfg.Trees {
			t.Fatalf("trained %d trees, want %d", len(b.Trees), cfg.Trees)
		}
		if b.OOBCoverage < 0 || b.OOBCoverage > 1 {
			t.Fatalf("OOBCoverage = %v", b.OOBCoverage)
		}
		if b.OOBError < 0 {
			t.Fatalf("OOBError = %v", b.OOBError)
		}
		if ml := b.MeanLeaves(); ml < 1 {
			t.Fatalf("MeanLeaves = %v", ml)
		}
	})
}

// TestTrainJobsInvariance: training at Jobs=1 and Jobs=4 produces
// byte-identical ensembles — the parallel layer may not perturb the
// bootstrap draws, member trees, or out-of-bag reduction.
func TestTrainJobsInvariance(t *testing.T) {
	proptest.Run(t, "ensemble-jobs", 5, func(t *testing.T, r *proptest.Rand) {
		d := proptest.PerfDataset(r, r.IntBetween(100, 250))
		cfg := genEnsembleConfig(r)
		persist := func(jobs int) []byte {
			cfg.Jobs = jobs
			b, err := ensemble.Train(d, cfg)
			if err != nil {
				t.Fatalf("Train(jobs=%d): %v", jobs, err)
			}
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "oob %v %v\n", b.OOBError, b.OOBCoverage)
			for _, tree := range b.Trees {
				if err := tree.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
			}
			return buf.Bytes()
		}
		if !bytes.Equal(persist(1), persist(4)) {
			t.Fatal("ensemble differs between Jobs=1 and Jobs=4")
		}
	})
}
