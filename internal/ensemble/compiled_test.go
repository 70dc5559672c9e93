package ensemble_test

// Bit-identity properties of the compiled ensemble: CompileBagger must
// reproduce Bagger exactly (predictions, batch kernel, contributions,
// description).

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/model"
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
			// Contributions delegate to Bagger, which walks each member
			// once; it must encode to the same bytes as the decomposition
			// built from the members' own Contributions.
			got, _ := json.Marshal(c.Contributions(row))
			if want, _ := json.Marshal(memberContributions(b, row)); string(got) != string(want) {
				t.Fatalf("row %d contributions:\n got %s\nwant %s", i, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			c.PredictInto(dst, rows)
		}); allocs != 0 {
			t.Fatalf("PredictInto allocates %v objects per call, want 0", allocs)
		}
	})
}

// memberContributions is the ensemble decomposition built from its
// definition: every member's own Tree.Contributions, summed per event
// in tree order, averaged, ordered by attribute and then stably by
// Cycles, with fractions against the mean unsmoothed leaf prediction.
func memberContributions(b *ensemble.Bagger, row dataset.Instance) []model.Contribution {
	type acc struct {
		name         string
		coef, cycles float64
	}
	sums := map[int]*acc{}
	meanPred := 0.0
	for _, t := range b.Trees {
		meanPred += t.LeafFor(row).Model.Predict(row)
		for _, c := range t.Contributions(row) {
			a := sums[c.Attr]
			if a == nil {
				a = &acc{name: c.Name}
				sums[c.Attr] = a
			}
			a.coef += c.Coef
			a.cycles += c.Cycles
		}
	}
	n := float64(len(b.Trees))
	meanPred /= n
	attrs := make([]int, 0, len(sums))
	for a := range sums {
		attrs = append(attrs, a)
	}
	sort.Ints(attrs)
	out := make([]model.Contribution, 0, len(attrs))
	for _, a := range attrs {
		s := sums[a]
		c := model.Contribution{Attr: a, Name: s.name, Coef: s.coef / n, Rate: row[a], Cycles: s.cycles / n}
		if meanPred != 0 {
			c.Fraction = c.Cycles / meanPred
		}
		out = append(out, c)
	}
	model.SortContributions(out)
	return out
}

// TestCompiledBaggerContributionsAllocs pins the per-call cost of the
// ensemble decomposition, which /v1/stream pays per sample through
// TopContribution: one allocation, the returned slice.
func TestCompiledBaggerContributionsAllocs(t *testing.T) {
	d := proptest.PerfDataset(proptest.NewRand(proptest.CaseSeed("ensemble-allocs", 0)), 200)
	cfg := ensemble.DefaultConfig()
	cfg.Trees = 4
	cfg.Tree.MinLeaf = 20
	b, err := ensemble.Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ensemble.CompileBagger(b)
	if err != nil {
		t.Fatal(err)
	}
	row := d.Row(0)
	if len(c.Contributions(row)) == 0 {
		t.Fatal("no contributions for the probe row; the allocation count would not cover the reduction")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Contributions(row) }); allocs != 1 {
		t.Fatalf("Contributions allocates %v objects per call on a 4-member ensemble, want 1", allocs)
	}
}
