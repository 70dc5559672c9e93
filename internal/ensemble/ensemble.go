// Package ensemble implements bootstrap-aggregated (bagged) M5' model
// trees. Bagging trades away the single tree's interpretability — the
// property the paper chooses model trees *for* — in exchange for variance
// reduction, so it sits at the exact midpoint of the paper's
// interpretable-vs-black-box axis: better accuracy than one tree, still
// built from readable trees, but no longer a single set of rules to hand
// to an analyst. The bagging experiment quantifies what that trade buys
// on the performance dataset.
package ensemble

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/mtree"
	"repro/internal/parallel"
)

// Config controls bagging.
type Config struct {
	// Trees is the ensemble size.
	Trees int
	// Tree is the configuration for each member tree.
	Tree mtree.Config
	// SampleFraction is the bootstrap sample size as a fraction of the
	// training set (1.0 = classical bagging with replacement).
	SampleFraction float64
	// Seed drives the bootstrap resampling. Tree t draws its bootstrap
	// sample from an RNG seeded by parallel.DeriveSeed(Seed, t), so each
	// member's sample depends only on (Seed, t) — not on Trees, and not on
	// how many trees train concurrently.
	Seed int64
	// Jobs is the number of member trees trained concurrently
	// (0 = GOMAXPROCS, 1 = serial). The ensemble, including the
	// out-of-bag estimates, is identical for every value.
	Jobs int
}

// DefaultConfig returns a 10-tree bagger with default M5' members.
func DefaultConfig() Config {
	return Config{Trees: 10, Tree: mtree.DefaultConfig(), SampleFraction: 1.0, Seed: 1}
}

// Bagger is a trained ensemble.
type Bagger struct {
	Trees []*mtree.Tree
	// OOBError is the out-of-bag mean absolute error estimated during
	// training: each instance predicted only by the trees whose bootstrap
	// sample excluded it. It is a free generalization estimate, reported
	// alongside cross validation.
	OOBError float64
	// OOBCoverage is the fraction of training instances that had at least
	// one out-of-bag tree.
	OOBCoverage float64
}

// Train fits the bagged ensemble.
func Train(d *dataset.Dataset, cfg Config) (*Bagger, error) {
	n := d.Len()
	if n == 0 {
		return nil, errors.New("ensemble: cannot train on empty dataset")
	}
	if cfg.Trees < 1 {
		return nil, fmt.Errorf("ensemble: %d trees requested", cfg.Trees)
	}
	if cfg.SampleFraction <= 0 || cfg.SampleFraction > 1 {
		return nil, fmt.Errorf("ensemble: sample fraction %v not in (0,1]", cfg.SampleFraction)
	}
	b := &Bagger{}

	sampleSize := int(float64(n) * cfg.SampleFraction)
	if sampleSize < 1 {
		sampleSize = 1
	}
	// Each member is an independent work item: draw the bootstrap sample
	// from the tree's own derived seed, train, and predict the tree's
	// out-of-bag rows. All randomness is fixed per (Seed, t) before any
	// goroutine runs.
	seeds := make([]int64, cfg.Trees)
	for t := range seeds {
		seeds[t] = parallel.DeriveSeed(cfg.Seed, t)
	}
	type member struct {
		tree *mtree.Tree
		// oobPred[i] is the tree's prediction for row i, valid only where
		// oob[i] is true (row i was not drawn into the bootstrap sample).
		oob     []bool
		oobPred []float64
	}
	members, err := parallel.Map(parallel.Config{Jobs: cfg.Jobs}, seeds,
		func(t int, seed int64) (member, error) {
			rng := rand.New(rand.NewSource(seed))
			inBag := make([]bool, n)
			idx := make([]int, sampleSize)
			for i := range idx {
				k := rng.Intn(n)
				idx[i] = k
				inBag[k] = true
			}
			tree, err := mtree.Build(d.Subset(idx), cfg.Tree)
			if err != nil {
				return member{}, fmt.Errorf("ensemble: training tree %d: %w", t, err)
			}
			m := member{tree: tree, oob: make([]bool, n), oobPred: make([]float64, n)}
			for i := 0; i < n; i++ {
				if !inBag[i] {
					m.oob[i] = true
					m.oobPred[i] = tree.Predict(d.Row(i))
				}
			}
			return m, nil
		})
	if err != nil {
		return nil, err
	}

	// Reduce the out-of-bag sums serially in tree order so the
	// floating-point accumulation (and hence OOBError) is independent of
	// goroutine scheduling.
	oobSum := make([]float64, n)
	oobCount := make([]int, n)
	for _, m := range members {
		b.Trees = append(b.Trees, m.tree)
		for i := 0; i < n; i++ {
			if m.oob[i] {
				oobSum[i] += m.oobPred[i]
				oobCount[i]++
			}
		}
	}

	var absErr float64
	covered := 0
	for i := 0; i < n; i++ {
		if oobCount[i] == 0 {
			continue
		}
		covered++
		pred := oobSum[i] / float64(oobCount[i])
		if e := pred - d.Target(i); e >= 0 {
			absErr += e
		} else {
			absErr -= e
		}
	}
	if covered > 0 {
		b.OOBError = absErr / float64(covered)
	}
	b.OOBCoverage = float64(covered) / float64(n)
	return b, nil
}

// Predict averages the member trees' (smoothed) predictions.
func (b *Bagger) Predict(row dataset.Instance) float64 {
	if len(b.Trees) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range b.Trees {
		s += t.Predict(row)
	}
	return s / float64(len(b.Trees))
}

// MeanLeaves reports the average member-tree size, a readability proxy.
func (b *Bagger) MeanLeaves() float64 {
	if len(b.Trees) == 0 {
		return 0
	}
	return float64(b.NumLeaves()) / float64(len(b.Trees))
}

// NumLeaves returns the total leaf count across the member trees — the
// number of (overlapping) performance classes the ensemble carries. See
// MeanLeaves for the per-member readability proxy.
func (b *Bagger) NumLeaves() int {
	s := 0
	for _, t := range b.Trees {
		s += t.NumLeaves()
	}
	return s
}

// Describe summarizes the ensemble in the registry's model.Description
// form. Schema fields come from the first member; every member is
// trained on the same columns.
func (b *Bagger) Describe() model.Description {
	d := model.Description{Kind: "bagged-m5", Trees: len(b.Trees), NumLeaves: b.NumLeaves()}
	if len(b.Trees) > 0 {
		t := b.Trees[0]
		d.Target = t.TargetName
		d.AttrNames = t.AttrNames
		d.TrainN = t.TrainN
		d.Machine = t.Machine
	}
	return d
}
