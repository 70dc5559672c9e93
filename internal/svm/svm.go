// Package svm implements epsilon-insensitive support vector regression
// (ε-SVR) trained with a simplified SMO optimizer, the paper's second
// black-box comparator (Weka's SMOreg; Shevade et al.'s improvements to
// Smola & Schölkopf's algorithm). On the performance dataset it reaches a
// correlation around 0.98 — on par with the model tree — but like the ANN
// it offers no per-event interpretation.
//
// Inputs and target are standardized internally. RBF and linear kernels are
// provided.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// KernelKind selects the kernel function.
type KernelKind int

const (
	// KernelRBF is the Gaussian kernel exp(-gamma*||x-y||^2).
	KernelRBF KernelKind = iota
	// KernelLinear is the dot-product kernel.
	KernelLinear
)

// Config holds the SVR hyper-parameters.
type Config struct {
	// C is the box constraint (regularization trade-off).
	C float64
	// Epsilon is the width of the insensitive tube.
	Epsilon float64
	// Kernel selects the kernel.
	Kernel KernelKind
	// Gamma is the RBF width parameter (ignored for linear).
	Gamma float64
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses bounds the number of full passes without progress before
	// termination.
	MaxPasses int
	// MaxIters hard-bounds total optimization sweeps.
	MaxIters int
	// MaxTrainSize caps the number of training instances; larger training
	// sets are randomly subsampled (0 disables). SMO cost grows
	// quadratically with the training size, and on this dataset a few
	// thousand sections already saturate accuracy.
	MaxTrainSize int
	// Seed drives working-pair selection and subsampling.
	Seed int64
}

// DefaultConfig returns settings comparable to Weka's SMOreg defaults.
func DefaultConfig() Config {
	return Config{
		C:            10,
		Epsilon:      0.05,
		Kernel:       KernelRBF,
		Gamma:        0.5,
		Tol:          1e-3,
		MaxPasses:    5,
		MaxIters:     60,
		MaxTrainSize: 2000,
		Seed:         1,
	}
}

// kernelCacheBytes bounds Train's kernel-row cache: 32 MiB, the full
// n×n matrix of float64 for n up to 2048.
const kernelCacheBytes = 32 << 20

// Machine is a trained SVR model.
type Machine struct {
	cfg      Config
	features []int
	xMean    []float64
	xStd     []float64
	yMean    float64
	yStd     float64
	// Support data: standardized feature vectors with nonzero beta.
	sv   [][]float64
	beta []float64 // alpha - alpha*, per support vector
	b    float64
}

// Train fits an ε-SVR on the dataset using a simplified SMO: coordinate
// updates on the beta = alpha - alpha* formulation with an epsilon-aware
// clipped step, cycling until KKT violations fall below tolerance.
func Train(d *dataset.Dataset, cfg Config) (*Machine, error) {
	n := d.Len()
	if n == 0 {
		return nil, errors.New("svm: cannot train on empty dataset")
	}
	if cfg.C <= 0 {
		return nil, fmt.Errorf("svm: C=%v must be positive", cfg.C)
	}
	if cfg.MaxTrainSize > 0 && n > cfg.MaxTrainSize {
		idx := rand.New(rand.NewSource(cfg.Seed)).Perm(n)[:cfg.MaxTrainSize]
		d = d.Subset(idx)
		n = d.Len()
	}
	features := d.FeatureIndices()
	f := len(features)

	m := &Machine{cfg: cfg, features: features}
	m.xMean = make([]float64, f)
	m.xStd = make([]float64, f)
	for j, a := range features {
		m.xMean[j] = d.ColumnMean(a)
		m.xStd[j] = math.Sqrt(d.ColumnVariance(a))
		if m.xStd[j] == 0 {
			m.xStd[j] = 1
		}
	}
	m.yMean = d.TargetMean()
	m.yStd = d.TargetStdDev()
	if m.yStd == 0 {
		m.yStd = 1
	}

	// Standardize once.
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		xi := make([]float64, f)
		for j, a := range features {
			xi[j] = (row[a] - m.xMean[j]) / m.xStd[j]
		}
		x[i] = xi
		y[i] = (d.Target(i) - m.yMean) / m.yStd
	}

	kern := m.kernelFn()
	beta := make([]float64, n)
	// fcache[i] = prediction(i) - y[i], maintained incrementally.
	fcache := make([]float64, n)
	for i := range fcache {
		fcache[i] = -y[i] // all beta zero, b zero
	}
	bias := 0.0
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = kern(x[i], x[i])
	}

	// Kernel rows, each computed the first time its instance takes a
	// step: every step adds delta*K(i,·) to the error cache, and a
	// support vector steps in nearly every sweep. At most
	// kernelCacheBytes of rows are kept, which is the whole matrix for
	// any n ≤ 2048 — every training set MaxTrainSize (2000) admits;
	// rows past the budget are recomputed into scratch on each step.
	krows := make([][]float64, n)
	spare := min(n, kernelCacheBytes/(8*n))
	scratch := make([]float64, n)

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(n)
	passes := 0
	for iter := 0; iter < cfg.MaxIters && passes < cfg.MaxPasses; iter++ {
		changed := 0
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			err := fcache[i] + bias // E_i = f(x_i) - y_i
			// KKT check for the epsilon tube in the beta formulation.
			viol := (err > cfg.Epsilon+cfg.Tol && beta[i] > -cfg.C) ||
				(err < -cfg.Epsilon-cfg.Tol && beta[i] < cfg.C) ||
				(math.Abs(err) < cfg.Epsilon-cfg.Tol && beta[i] != 0)
			if !viol {
				continue
			}
			eta := diag[i]
			if eta <= 0 {
				continue
			}
			// Proximal coordinate step: minimize the dual along beta[i].
			// The epsilon-insensitive subgradient gives a soft-threshold
			// style update.
			old := beta[i]
			var target float64
			switch {
			case err > cfg.Epsilon:
				target = old - (err-cfg.Epsilon)/eta
			case err < -cfg.Epsilon:
				target = old - (err+cfg.Epsilon)/eta
			default:
				// Inside the tube but beta nonzero: shrink toward zero.
				target = old - err/eta
				if (old > 0 && target < 0) || (old < 0 && target > 0) {
					target = 0
				}
			}
			nb := math.Max(-cfg.C, math.Min(cfg.C, target))
			delta := nb - old
			if math.Abs(delta) < 1e-12 {
				continue
			}
			beta[i] = nb
			// Update the error cache: f(x_j) changes by delta*K(i,j).
			ki := krows[i]
			if ki == nil {
				ki = scratch
				if spare > 0 {
					ki = make([]float64, n)
					krows[i] = ki
					spare--
				}
				for j := range ki {
					ki[j] = kern(x[i], x[j])
				}
			}
			for j, k := range ki {
				fcache[j] += delta * k
			}
			changed++
		}
		// Recenter the bias on the current margin violators.
		bias = recenterBias(beta, fcache, cfg)
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m.b = bias
	for i := 0; i < n; i++ {
		if beta[i] != 0 {
			m.sv = append(m.sv, x[i])
			m.beta = append(m.beta, beta[i])
		}
	}
	return m, nil
}

// recenterBias chooses b so free support vectors sit on the tube boundary;
// with none, it zeroes the mean residual.
func recenterBias(beta, fcache []float64, cfg Config) float64 {
	sum, cnt := 0.0, 0
	for i := range beta {
		if beta[i] > 1e-9 && beta[i] < cfg.C-1e-9 {
			// Free positive beta: want f(x_i) - y_i = +epsilon... in the
			// beta>0 case the point lies above the tube by construction of
			// the dual; residual should be -epsilon.
			sum += -cfg.Epsilon - fcache[i]
			cnt++
		} else if beta[i] < -1e-9 && beta[i] > -cfg.C+1e-9 {
			sum += cfg.Epsilon - fcache[i]
			cnt++
		}
	}
	if cnt > 0 {
		return sum / float64(cnt)
	}
	// Fallback: zero mean residual over all points.
	for i := range fcache {
		sum += -fcache[i]
	}
	if len(fcache) == 0 {
		return 0
	}
	return sum / float64(len(fcache))
}

func (m *Machine) kernelFn() func(a, b []float64) float64 {
	switch m.cfg.Kernel {
	case KernelLinear:
		return func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				s += a[i] * b[i]
			}
			return s
		}
	default:
		gamma := m.cfg.Gamma
		return func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				d := a[i] - b[i]
				s += d * d
			}
			return math.Exp(-gamma * s)
		}
	}
}

// NumSupportVectors returns the number of retained support vectors.
func (m *Machine) NumSupportVectors() int { return len(m.sv) }

// Predict evaluates the machine on a full-width instance.
func (m *Machine) Predict(row dataset.Instance) float64 {
	f := len(m.features)
	xi := make([]float64, f)
	for j, a := range m.features {
		xi[j] = (row[a] - m.xMean[j]) / m.xStd[j]
	}
	kern := m.kernelFn()
	s := m.b
	for i, sv := range m.sv {
		s += m.beta[i] * kern(sv, xi)
	}
	return s*m.yStd + m.yMean
}
