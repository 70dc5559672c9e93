// Golden-output regression tests for the simulator hot path and for
// training. The collection hash was recorded before the flat-cache /
// block-streaming / zero-alloc-Step optimization campaign and pins the
// exact bits of every dataset value, provenance label and cycle-breakdown
// entry the collection pipeline produces. Any fast path that is not a
// provable no-op — a cache fast hit that should have moved replacement
// state, an RNG that diverges from math/rand by one draw, a prefetcher
// shortcut that skips a state change — shows up here as a hash mismatch,
// at jobs=1 and jobs=8 alike. The tree hashes do the same for mtree.Build
// and linreg.FitGreedy on that collection, recorded before the single
// fit-and-prune pass and the allocation-free greedy search.
package repro_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/counters"
	"repro/internal/linreg"
	"repro/internal/mtree"
	"repro/internal/workload"
)

// goldenCollectHash is the SHA-256 of the canonical serialization (see
// hashCollection) of CollectSuite(SuiteScaled(0.05), DefaultCollectConfig).
// Recorded from the pre-optimization simulator; the optimized hot loops
// must reproduce it bit for bit.
const goldenCollectHash = "5357c68f18f11bb83ad02bf3b55e1f05e00430eee6669472a91d7fe8db78ac31"

// hashCollection folds every row value (little-endian float bits), label
// and breakdown value into one SHA-256.
func hashCollection(col *counters.Collection) string {
	h := sha256.New()
	var b [8]byte
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	d := col.Data
	for i := 0; i < d.Len(); i++ {
		for _, v := range d.Row(i) {
			putF(v)
		}
	}
	for _, l := range col.Labels {
		fmt.Fprintf(h, "%s/%d/%d\n", l.Benchmark, l.Phase, l.Section)
	}
	for _, bd := range col.Breakdowns {
		for _, v := range bd {
			putF(v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGoldenCollectionHash(t *testing.T) {
	suite := workload.SuiteScaled(0.05)
	for _, jobs := range []int{1, 8} {
		cfg := counters.DefaultCollectConfig()
		cfg.Jobs = jobs
		col, err := counters.CollectSuite(suite, cfg)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if got := hashCollection(col); got != goldenCollectHash {
			t.Errorf("jobs=%d: collection hash %s, want %s — the simulator output changed; "+
				"if the change is intentional, re-record the golden hash and document why",
				jobs, got, goldenCollectHash)
		}
		if jobs == 1 && testing.Short() {
			break // one full serial pass is enough under -short
		}
	}
}

// goldenTreeHashes pins the SHA-256 of Tree.WriteJSON for mtree.Build on
// the golden collection, keyed by the four settings varied. The JSON
// carries every threshold and coefficient at full precision, so any
// change to split search, leaf regression or pruning arithmetic — a
// reordered sum, a different solver, a model fitted on other rows —
// changes a hash here.
var goldenTreeHashes = map[string]string{
	"minleaf=4 prune=false subtree=false drop=false":  "44259a4b8225575fcbe20ccd17d4631ec6d932255663ae116e24682847de1559",
	"minleaf=4 prune=false subtree=false drop=true":   "3058bb110e183ed7955bd8b27a0bf98b43d9817bc49cae3cd53a3f549198f612",
	"minleaf=4 prune=false subtree=true drop=false":   "ad3ebed5978679ddf997e4fe4b56302823d43f528b67e232f94aa3cf84f06387",
	"minleaf=4 prune=false subtree=true drop=true":    "ef6c0d26637483edc6fdbfa8869bb105262f4ff68d57b3648699483c2de5fe9b",
	"minleaf=4 prune=true subtree=false drop=false":   "44943a9cbeadf1d31ba3ba9c9079493e825fe7b932348623ba46517b07eccdb3",
	"minleaf=4 prune=true subtree=false drop=true":    "7b8bad044c2fa6eb0d4c3b2fc3edf30d3ad33a9d33c32462c12542386dab6768",
	"minleaf=4 prune=true subtree=true drop=false":    "478cce67328855afe8d65722cbff0f6d678012a001f955155364193a48780876",
	"minleaf=4 prune=true subtree=true drop=true":     "86f21b9b1b60215dbb3b193429784d57a3330f80d1e27d8eed7865304dae1745",
	"minleaf=43 prune=false subtree=false drop=false": "5117d979265b274698b84022bead18dccbb504322026464f16c6eeb1d6ce5aff",
	"minleaf=43 prune=false subtree=false drop=true":  "fc708be2fc1f2f5cd38a2d65a591f2fce0a1dee4d10e8f838d85fccab51ae3de",
	"minleaf=43 prune=false subtree=true drop=false":  "3cd7c082e6fceacaa62fd81cf0d18f37b216a7f8c6d7c56e277e399021efabbb",
	"minleaf=43 prune=false subtree=true drop=true":   "2b8bc51a36cac68fb6a9efc8d9a485beed39ddfd937a2ecdc64c00b2b031e815",
	"minleaf=43 prune=true subtree=false drop=false":  "cc66879e17c46fd72c2a3947213c0bfaa5df52a637bb4d7bf2517b101a039403",
	"minleaf=43 prune=true subtree=false drop=true":   "68b7780aab2de1628902e36070b1f19ac470eef7dd06d2f6912bc53d76780ddd",
	"minleaf=43 prune=true subtree=true drop=false":   "58fddfa795194f4a3f1ddc286311c7d692627d9357f19dd2f402da05adba2987",
	"minleaf=43 prune=true subtree=true drop=true":    "17ee71359814f3ed151e6f994965740cbd97fc8bec80e415ff237925aa8c8acb",
}

// goldenGreedyHash pins linreg.FitGreedy on the golden collection's full
// feature set: the naive global-linear baseline's path.
const goldenGreedyHash = "98788ccaa779bcd24adfdaaa65ad4d5ef210f1e25a44be1a89e501b23283baa9"

// hashModel folds a linear model's intercept, attribute indices and
// coefficient bits into one SHA-256.
func hashModel(m *linreg.Model) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Intercept))
	h.Write(b[:])
	for i, a := range m.Attrs {
		fmt.Fprintf(h, "%d:", a)
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(m.Coefs[i]))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestGoldenTreeHashes(t *testing.T) {
	col, err := counters.CollectSuite(workload.SuiteScaled(0.05), counters.DefaultCollectConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := hashCollection(col); got != goldenCollectHash {
		t.Fatalf("collection hash %s, want %s — fix TestGoldenCollectionHash first", got, goldenCollectHash)
	}
	for _, minLeaf := range []int{4, 43} {
		for _, prune := range []bool{false, true} {
			for _, subtree := range []bool{false, true} {
				for _, drop := range []bool{false, true} {
					cfg := mtree.DefaultConfig()
					cfg.MinLeaf, cfg.Prune = minLeaf, prune
					cfg.SubtreeAttributesOnly, cfg.DropAttributes = subtree, drop
					tree, err := mtree.Build(col.Data, cfg)
					if err != nil {
						t.Fatal(err)
					}
					h := sha256.New()
					if err := tree.WriteJSON(h); err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("minleaf=%d prune=%t subtree=%t drop=%t", minLeaf, prune, subtree, drop)
					if got, want := fmt.Sprintf("%x", h.Sum(nil)), goldenTreeHashes[key]; got != want {
						t.Errorf("%s: tree JSON hash %s, want %s — the trained tree changed", key, got, want)
					}
				}
			}
		}
	}
	m, err := linreg.FitGreedy(col.Data, col.Data.FeatureIndices())
	if err != nil {
		t.Fatal(err)
	}
	if got := hashModel(m); got != goldenGreedyHash {
		t.Errorf("FitGreedy model hash %s, want %s — the greedy leaf search changed", got, goldenGreedyHash)
	}
}
