package mtree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestComparePairsSortsLikeSortSlice: split search sorts with
// slices.SortFunc(comparePairs); it must leave every pair where the
// sort.Slice less function x[i] < x[j] left it, ties included, or the
// prefix sums of the SDR sweep (and so the trees) change. The slices are
// heavy with ties, signed zeros and a few NaNs, and long enough for the
// pdqsort's partitioning and pattern breaking, not only insertion sort.
func TestComparePairsSortsLikeSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	values := []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, 1e-300, math.NaN()}
	for c := 0; c < 400; c++ {
		n := []int{0, 1, 2, 5, 12, 13, 33, 50, 318, 2000}[c%10]
		distinct := 1 + rng.Intn(len(values))
		if c%5 == 4 {
			distinct = len(values) - 1 // no NaN
		}
		want := make([]pair, n)
		for i := range want {
			// y is the original index, so equal slices mean equal permutations.
			want[i] = pair{values[rng.Intn(distinct)], float64(i)}
			if c%3 == 0 && rng.Intn(4) == 0 {
				want[i].x = rng.NormFloat64()
			}
		}
		got := slices.Clone(want)
		sort.Slice(want, func(i, j int) bool { return want[i].x < want[j].x })
		slices.SortFunc(got, comparePairs)
		for i := range got {
			if math.Float64bits(got[i].x) != math.Float64bits(want[i].x) || got[i].y != want[i].y {
				t.Fatalf("case %d (n=%d): position %d holds %s, sort.Slice put %s there",
					c, n, i, fmtPair(got[i]), fmtPair(want[i]))
			}
		}
	}
}

func fmtPair(p pair) string {
	return fmt.Sprintf("{x=%v (%#x) row %v}", p.x, math.Float64bits(p.x), p.y)
}
