package ensemble_test

// Bit-identity properties of the compiled ensemble: CompileBagger must
// reproduce Bagger exactly (predictions, batch kernel, contributions,
// description).

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/proptest"
)

func trainRandom(t *testing.T, r *proptest.Rand) *ensemble.Bagger {
	t.Helper()
	d := proptest.PerfDataset(r, r.IntBetween(100, 250))
	b, err := ensemble.Train(d, genEnsembleConfig(r))
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	return b
}

// TestCompiledBaggerBitIdentical: compiled ensemble predictions — single
// and batched — equal the pointer ensemble's bit for bit, and the batch
// kernel allocates nothing.
func TestCompiledBaggerBitIdentical(t *testing.T) {
	proptest.Run(t, "compiled-ensemble", 8, func(t *testing.T, r *proptest.Rand) {
		b := trainRandom(t, r)
		c, err := ensemble.CompileBagger(b)
		if err != nil {
			t.Fatalf("CompileBagger: %v", err)
		}
		if c.NumLeaves() != b.NumLeaves() {
			t.Fatalf("NumLeaves %d != %d", c.NumLeaves(), b.NumLeaves())
		}
		if !reflect.DeepEqual(c.Describe(), b.Describe()) {
			t.Fatalf("Describe %+v != %+v", c.Describe(), b.Describe())
		}

		rows := make([]dataset.Instance, r.IntBetween(1, 150))
		for i := range rows {
			rows[i] = genRow(r)
		}
		dst := make([]float64, len(rows))
		c.PredictInto(dst, rows)
		for i, row := range rows {
			want := b.Predict(row)
			if got := c.Predict(row); got != want {
				t.Fatalf("row %d: compiled %v != bagger %v", i, got, want)
			}
			if dst[i] != want {
				t.Fatalf("row %d: kernel %v != bagger %v", i, dst[i], want)
			}
			if !reflect.DeepEqual(c.Contributions(row), b.Contributions(row)) {
				t.Fatalf("row %d: contributions differ", i)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			c.PredictInto(dst, rows)
		}); allocs != 0 {
			t.Fatalf("PredictInto allocates %v objects per call, want 0", allocs)
		}
	})
}
