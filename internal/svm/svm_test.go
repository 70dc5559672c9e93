package svm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
)

func linearData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "a"}, {Name: "b"}}, 0)
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		d.MustAppend(dataset.Instance{2*a - b, a, b})
	}
	return d
}

func TestTrainValidation(t *testing.T) {
	empty := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	if _, err := Train(empty, DefaultConfig()); err == nil {
		t.Error("empty dataset accepted")
	}
	d := linearData(10, 1)
	cfg := DefaultConfig()
	cfg.C = 0
	if _, err := Train(d, cfg); err == nil {
		t.Error("C=0 accepted")
	}
}

func TestLearnsLinearWithLinearKernel(t *testing.T) {
	d := linearData(600, 2)
	cfg := DefaultConfig()
	cfg.Kernel = KernelLinear
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	met, err := eval.Evaluate(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if met.Correlation < 0.98 {
		t.Errorf("linear-kernel correlation %v < 0.98", met.Correlation)
	}
}

func TestLearnsNonlinearWithRBF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	for i := 0; i < 600; i++ {
		x := rng.Float64()*4 - 2
		d.MustAppend(dataset.Instance{math.Sin(2 * x), x})
	}
	m, err := Train(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	met, _ := eval.Evaluate(m, d)
	if met.Correlation < 0.95 {
		t.Errorf("RBF fit of sin correlation %v < 0.95", met.Correlation)
	}
}

func TestSubsamplingCap(t *testing.T) {
	d := linearData(500, 4)
	cfg := DefaultConfig()
	cfg.MaxTrainSize = 100
	cfg.Kernel = KernelLinear
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSupportVectors() > 100 {
		t.Errorf("support vectors %d exceed training cap 100", m.NumSupportVectors())
	}
	met, _ := eval.Evaluate(m, d)
	if met.Correlation < 0.95 {
		t.Errorf("subsampled fit correlation %v < 0.95", met.Correlation)
	}
}

func TestSupportVectorsBounded(t *testing.T) {
	d := linearData(200, 5)
	m, err := Train(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sv := m.NumSupportVectors(); sv > d.Len() {
		t.Errorf("support vectors %d > training size %d", sv, d.Len())
	}
}

func TestEpsilonTubeSparsity(t *testing.T) {
	// With a wide epsilon tube and an easy target, many points sit inside
	// the tube and contribute no support vector.
	d := linearData(300, 6)
	wide := DefaultConfig()
	wide.Kernel = KernelLinear
	wide.Epsilon = 1.0
	narrow := wide
	narrow.Epsilon = 0.001
	mw, err := Train(d, wide)
	if err != nil {
		t.Fatal(err)
	}
	mn, err := Train(d, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if mw.NumSupportVectors() >= mn.NumSupportVectors() {
		t.Errorf("wide tube kept %d SVs, narrow %d; expected fewer for wide",
			mw.NumSupportVectors(), mn.NumSupportVectors())
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	d := linearData(150, 7)
	m1, err := Train(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := dataset.Instance{0, 0.5, -0.5}
	if m1.Predict(in) != m2.Predict(in) {
		t.Error("same seed produced different machines")
	}
}

func TestPredictFinite(t *testing.T) {
	d := linearData(100, 8)
	m, err := Train(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []dataset.Instance{{0, 0, 0}, {0, 50, -50}} {
		if p := m.Predict(in); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Errorf("Predict(%v) = %v", in, p)
		}
	}
}

// trainGolden maps each case to the SHA-256 of Train's output — bias,
// betas and support vectors as float bits — recorded before the kernel
// row cache existed: caching kernel rows must not move a bit.
var trainGolden = map[string]string{
	"rbf":       "fd5614d51b9f9e72d6881c686f495ad65d5f437ca9bcab18132e90c1420a942d",
	"linear":    "5eff091735a628961ce9ba804ac6b622f086f70e7dc48b5246a4c2e4399fa58a",
	"subsample": "39f2298815f38afb4ae60fd8ab6ebe2337a95c59a2f93a90c864d490cd82bab7",
	"sine":      "66f0a59e1edd236144bfb5061a86526195eb65c4765337ecdafc6f0b7125ab1c",
}

func TestTrainOutputHash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sine := dataset.MustNew([]dataset.Attribute{{Name: "y"}, {Name: "x"}}, 0)
	for i := 0; i < 500; i++ {
		x := rng.Float64()*4 - 2
		sine.MustAppend(dataset.Instance{math.Sin(2*x) + 0.05*rng.NormFloat64(), x})
	}
	linear := DefaultConfig()
	linear.Kernel = KernelLinear
	sub := DefaultConfig()
	sub.MaxTrainSize = 250
	cases := map[string]struct {
		d   *dataset.Dataset
		cfg Config
	}{
		"rbf":       {linearData(600, 2), DefaultConfig()},
		"linear":    {linearData(600, 2), linear},
		"subsample": {linearData(400, 5), sub},
		"sine":      {sine, DefaultConfig()},
	}
	for name, tc := range cases {
		m, err := Train(tc.d, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		put := func(v float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(v)) }
		put(m.b)
		for i, sv := range m.sv {
			put(m.beta[i])
			for _, v := range sv {
				put(v)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != trainGolden[name] {
			t.Errorf("%s: Train output hash %s, golden %s (%d support vectors)", name, got, trainGolden[name], len(m.sv))
		}
	}
}
