package linreg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// Differential tests for the resumed factor and the fused scoring pass.
// The oracle is the greedy search as it was before the factor was
// resumed: every trial copies its full ridge submatrix and runs a fresh
// Cholesky solve, and scoring accumulates every term before summing the
// errors (refCholSolve, refSolve and refCorrectedError below keep that
// version's arithmetic, with their scratch allocated locally). The resumed search
// must agree with it bit for bit, not within a tolerance: the golden tree
// hashes depend on it.

// refCholSolve is the stand-alone Cholesky solve the resumed factor
// replaced.
func refCholSolve(m, y, z, x []float64, p int) bool {
	for k := 0; k < p; k++ {
		rowK := m[k*p : k*p+k]
		s := m[k*p+k]
		for _, v := range rowK {
			s -= v * v
		}
		if s <= 0 {
			return false
		}
		m[k*p+k] = math.Sqrt(s)
		for i := k + 1; i < p; i++ {
			rowI := m[i*p : i*p+k]
			s := m[i*p+k]
			for j, v := range rowK {
				s -= rowI[j] * v
			}
			m[i*p+k] = s / m[k*p+k]
		}
	}
	for i := 0; i < p; i++ {
		rowI := m[i*p : i*p+i]
		s := y[i]
		for j, v := range rowI {
			s -= v * z[j]
		}
		z[i] = s / m[i*p+i]
	}
	for i := p - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < p; j++ {
			s -= m[j*p+i] * x[j]
		}
		x[i] = s / m[i*p+i]
	}
	return true
}

// refSolve is the per-trial full solve: the whole ridge submatrix, both
// triangles, refilled on every attempt.
func refSolve(g *greedyState, set []int, beta []float64) error {
	p := len(g.mean)
	var active []int
	for _, pos := range set {
		if g.sd[pos] > 0 {
			active = append(active, pos)
		}
	}
	k := len(active)
	beta = beta[:len(set)+1]
	clear(beta)
	if k > 0 {
		m, rhs, z, x := make([]float64, k*k), make([]float64, k), make([]float64, k), make([]float64, k)
		for r, pos := range active {
			rhs[r] = g.xty[pos]
		}
		reg := ridgeRel * float64(len(g.y))
		solved := false
		for attempt := 0; attempt < 6 && !solved; attempt++ {
			for r, pr := range active {
				for c, pc := range active {
					m[r*k+c] = g.xtx[pr*p+pc]
				}
				m[r*k+r] += reg
			}
			solved = refCholSolve(m, rhs, z, x, k)
			reg *= 1000
		}
		if !solved {
			return ErrSingular
		}
		i := 0
		for j, pos := range set {
			if g.sd[pos] > 0 {
				beta[1+j] = x[i] / g.sd[pos]
				i++
			}
		}
	}
	beta[0] = g.yMean
	for j, pos := range set {
		beta[0] -= beta[1+j] * g.mean[pos]
	}
	return nil
}

// refCorrectedError is the scoring pass with every term accumulated in
// pred before the absolute errors are summed.
func refCorrectedError(g *greedyState, beta []float64, set []int) float64 {
	pred := make([]float64, len(g.y))
	for i := range pred {
		pred[i] = beta[0]
	}
	for j, pos := range set {
		b := beta[1+j]
		for i, v := range g.cols[pos] {
			pred[i] += b * v
		}
	}
	s := 0.0
	for i, yv := range g.y {
		s += math.Abs(pred[i] - yv)
	}
	nf := float64(len(g.y))
	mae := s / nf
	v := float64(len(set) + 1)
	if nf-v <= 0 {
		return mae * 10
	}
	return mae * (nf + v) / (nf - v)
}

// refFitGreedy is FitGreedy with refSolve and refCorrectedError for every
// candidate.
func refFitGreedy(d *dataset.Dataset, features []int) (*Model, error) {
	g := newGreedyState(d, features)
	p := len(features)
	cur := make([]int, p)
	for i := range cur {
		cur[i] = i
	}
	bestBeta, nextBeta, beta := make([]float64, p+1), make([]float64, p+1), make([]float64, p+1)
	if err := refSolve(g, cur, bestBeta); err != nil {
		return nil, err
	}
	const dropTol = 1e-3
	bestErr := refCorrectedError(g, bestBeta, cur)
	var next []int
	for len(cur) > 0 {
		improved := false
		nextErr := bestErr * (1 + dropTol)
		for drop := range cur {
			trial := append(append([]int(nil), cur[:drop]...), cur[drop+1:]...)
			if err := refSolve(g, trial, beta); err != nil {
				continue
			}
			if e := refCorrectedError(g, beta, trial); e < nextErr {
				nextErr = e
				next = trial
				copy(nextBeta, beta[:len(trial)+1])
				improved = true
			}
		}
		if !improved {
			break
		}
		bestErr = nextErr
		cur = next
		bestBeta, nextBeta = nextBeta, bestBeta
	}
	m := &Model{Intercept: bestBeta[0], Coefs: append([]float64(nil), bestBeta[1:len(cur)+1]...)}
	for _, pos := range cur {
		m.Attrs = append(m.Attrs, features[pos])
	}
	sanitize(m)
	return m, nil
}

// sameBits reports the first difference between two float slices' bits.
func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// sameModel compares the fitted models bit for bit.
func sameModel(got, want *Model) error {
	if math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) {
		return fmt.Errorf("intercept %v, want %v", got.Intercept, want.Intercept)
	}
	if fmt.Sprint(got.Attrs) != fmt.Sprint(want.Attrs) {
		return fmt.Errorf("attrs %v, want %v", got.Attrs, want.Attrs)
	}
	return sameBits("coefs", got.Coefs, want.Coefs)
}

// greedyDataset draws a dataset shaped to stress the greedy search:
// constant, duplicated, collinear, rare-event and wide-magnitude columns,
// and row counts from just above the feature count upward.
func greedyDataset(rng *rand.Rand) (*dataset.Dataset, []int) {
	p := 1 + rng.Intn(12)
	n := p + 1 + rng.Intn(4)
	if rng.Intn(2) == 0 {
		n = p + 1 + rng.Intn(80)
	}
	attrs := []dataset.Attribute{{Name: "y"}}
	for j := 0; j < p; j++ {
		attrs = append(attrs, dataset.Attribute{Name: fmt.Sprintf("x%d", j)})
	}
	kinds := make([]int, p)
	src := make([]int, p) // an earlier column the duplicate and collinear kinds copy
	for j := range kinds {
		kinds[j] = rng.Intn(6)
		if j == 0 && kinds[j] >= 2 && kinds[j] <= 3 {
			kinds[j] = 0
		}
		if j > 0 {
			src[j] = rng.Intn(j)
		}
	}
	coefs := make([]float64, p)
	for j := range coefs {
		if rng.Intn(3) > 0 {
			coefs[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
	}
	d := dataset.MustNew(attrs, 0)
	for i := 0; i < n; i++ {
		row := make(dataset.Instance, p+1)
		for j := 0; j < p; j++ {
			x := &row[j+1]
			switch kinds[j] {
			case 0: // ordinary
				*x = rng.NormFloat64()
			case 1: // constant
				*x = 0.1 * float64(j+1)
			case 2: // exact duplicate
				*x = row[src[j]+1]
			case 3: // collinear with a tiny perturbation
				*x = 3*row[src[j]+1] - 0.5 + 1e-9*rng.NormFloat64()
			case 4: // rare event
				if rng.Intn(10) == 0 {
					*x = rng.ExpFloat64() * 1e-4
				}
			case 5: // large magnitude
				*x = 1e5 * (1 + rng.Float64())
			}
		}
		y := 1.5
		for j, c := range coefs {
			y += c * row[j+1]
		}
		row[0] = y + 0.01*rng.NormFloat64()
		d.MustAppend(row)
	}
	features := make([]int, p)
	for j := range features {
		features[j] = j + 1
	}
	return d, features
}

func TestFitGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	for c := 0; c < 400; c++ {
		d, features := greedyDataset(rng)
		want, wantErr := refFitGreedy(d, features)
		got, err := FitGreedy(d, features)
		if !errors.Is(err, wantErr) {
			t.Fatalf("case %d (n=%d, p=%d): error %v, want %v", c, d.Len(), len(features), err, wantErr)
		}
		if err != nil {
			continue
		}
		if e := sameModel(got, want); e != nil {
			t.Fatalf("case %d (n=%d, p=%d): %v", c, d.Len(), len(features), e)
		}
		// The scoring pass on its own, for subsets of every size.
		g := newGreedyState(d, features)
		beta := make([]float64, len(features)+1)
		for size := 0; size <= len(features); size++ {
			set := rng.Perm(len(features))[:size]
			for j := range beta {
				beta[j] = rng.NormFloat64()
			}
			got, want := g.correctedError(beta, set), refCorrectedError(g, beta, set)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d: correctedError of %v = %v, want %v", c, set, got, want)
			}
		}
	}
}

// spdSystem draws a k x k ridge system over standardized columns like
// the greedy search's: X'X plus ridge for n rows, with duplicated
// columns when nearSingular is set, and its right-hand side.
func spdSystem(rng *rand.Rand, k int, nearSingular bool) (m, y []float64) {
	n := k + 1 + rng.Intn(30)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = rng.NormFloat64()
		}
		if nearSingular && j > 0 && rng.Intn(2) == 0 {
			copy(cols[j], cols[rng.Intn(j)])
		}
	}
	m, y = make([]float64, k*k), make([]float64, k)
	for r := 0; r < k; r++ {
		for c := 0; c <= r; c++ {
			for i := 0; i < n; i++ {
				m[r*k+c] += cols[r][i] * cols[c][i]
			}
			m[c*k+r] = m[r*k+c]
		}
		m[r*k+r] += ridgeRel * float64(n)
		y[r] = rng.NormFloat64() * float64(n)
	}
	return m, y
}

// indefinite perturbs a system so that its leading block of size q+1 is
// no longer positive definite: the diagonal of column q goes negative.
func indefinite(m []float64, k, q int) {
	m[q*k+q] = -1 - math.Abs(m[q*k+q])
}

// resumeInput prepares cholFrom's input for the system (m, y) resumed at
// column from, with the production partial-sum update: a greedyState
// whose cached normal equations are the system itself factors it
// (factorBase) and advances its partial sums to from in one step. It
// returns the matrix, right-hand side and z for cholFrom. A system that
// is not positive definite must fail at a column >= from.
func resumeInput(m, y []float64, k, from int) (mm, yy, zz []float64) {
	g := &greedyState{
		mean: make([]float64, k), sd: make([]float64, k),
		xtx: append([]float64(nil), m...), xty: y,
		base: make([]int, 0, k), baseL: make([]float64, k*k),
		baseZ: make([]float64, k), baseX: make([]float64, k),
		part: make([]float64, k*k), partY: make([]float64, k),
	}
	// The ridge is already in m; with no rows, firstRidge adds none.
	set := make([]int, k)
	for j := range set {
		g.sd[j] = 1
		set[j] = j
	}
	g.factorBase(set)
	g.advance(from)
	mm, yy, zz = make([]float64, k*k), make([]float64, k), make([]float64, k)
	for r := 0; r < k; r++ {
		for c := 0; c <= r; c++ {
			if c < from {
				mm[r*k+c] = g.baseL[r*k+c]
			} else {
				mm[r*k+c] = g.part[r*k+c]
			}
		}
		if r < from {
			zz[r] = g.baseZ[r]
		} else {
			yy[r] = g.partY[r]
		}
	}
	return mm, yy, zz
}

// failsAt returns the column at which cholFrom, resumed at from, finds
// the prepared system not positive definite, or k when it succeeds. A
// column's diagonal depends only on the leading block through it, so the
// failing column is the size of the largest leading block that factors.
func failsAt(mm, yy, zz []float64, k, from int) int {
	for q := from + 1; q <= k; q++ {
		lead := make([]float64, q*q)
		for r := 0; r < q; r++ {
			copy(lead[r*q:(r+1)*q], mm[r*k:r*k+q])
		}
		z := append([]float64(nil), zz[:q]...)
		if !cholFrom(lead, yy[:q], z, make([]float64, q), q, from) {
			return q - 1
		}
	}
	return k
}

func TestCholFromMatchesCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for c := 0; c < 300; c++ {
		k := 1 + rng.Intn(12)
		m, y := spdSystem(rng, k, c%3 == 1)
		fail := k // the leading blocks before column fail stay positive definite
		if c%3 == 2 {
			fail = rng.Intn(k)
			indefinite(m, k, fail)
		}
		wantL := append([]float64(nil), m...)
		wantZ, wantX := make([]float64, k), make([]float64, k)
		if ok := refCholSolve(wantL, y, wantZ, wantX, k); ok != (fail == k) {
			t.Fatalf("case %d: oracle ok=%v for a system built to fail at column %d of %d", c, ok, fail, k)
		}
		// from = 0 is cholSolve; from > fail has no factor columns to resume.
		for from := 0; from <= min(k, fail); from++ {
			mm, yy, zz := resumeInput(m, y, k, from)
			if fail < k {
				if got := failsAt(mm, yy, zz, k, from); got != fail {
					t.Fatalf("case %d from %d: resumed factor fails at column %d, want %d", c, from, got, fail)
				}
				continue
			}
			x := make([]float64, k)
			if !cholFrom(mm, yy, zz, x, k, from) {
				t.Fatalf("case %d from %d: resumed factor failed on a positive definite system", c, from)
			}
			for r := 0; r < k; r++ {
				if e := sameBits(fmt.Sprintf("case %d from %d: L row %d", c, from, r), mm[r*k:r*k+r+1], wantL[r*k:r*k+r+1]); e != nil {
					t.Fatal(e)
				}
			}
			if e := sameBits(fmt.Sprintf("case %d from %d: z", c, from), zz, wantZ); e != nil {
				t.Fatal(e)
			}
			if e := sameBits(fmt.Sprintf("case %d from %d: x", c, from), x, wantX); e != nil {
				t.Fatal(e)
			}
		}
	}
}

// TestSolveDropMatchesSolve runs one round of one-drop trials on crafted
// normal equations, positive definite or not at the first ridge and with
// constant positions, and compares every resumed trial with refSolve.
// Indefinite systems do not arise from data (standardized columns keep
// X'X positive semi-definite and the ridge makes it definite); crafting
// them drives solveDrop's fallback to the full retry loop.
func TestSolveDropMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 300; c++ {
		p := 1 + rng.Intn(10)
		n := p + 2 + rng.Intn(20)
		m, y := spdSystem(rng, p, c%2 == 0)
		g := &greedyState{
			mean: make([]float64, p), sd: make([]float64, p),
			xtx: make([]float64, p*p), xty: y, y: make([]float64, n),
			active: make([]int, 0, p), chol: make([]float64, p*p),
			rhs: make([]float64, p), z: make([]float64, p), x: make([]float64, p),
			base: make([]int, 0, p), baseL: make([]float64, p*p),
			baseZ: make([]float64, p), baseX: make([]float64, p),
			part: make([]float64, p*p), partY: make([]float64, p),
		}
		// spdSystem's ridge is for its own row count; solve adds its own.
		copy(g.xtx, m)
		for j := 0; j < p; j++ {
			g.mean[j] = rng.NormFloat64()
			g.sd[j] = 0.5 + rng.Float64()
			if rng.Intn(5) == 0 {
				g.sd[j] = 0 // constant position
			}
		}
		switch c % 4 {
		case 1: // a negative diagonal far beyond every ridge attempt
			q := rng.Intn(p)
			g.xtx[q*p+q] = -1e30
		case 3: // indefinite at the first ridge; a larger retry ridge solves it
			q := rng.Intn(p)
			g.xtx[q*p+q] = -ridgeRel * float64(n) * 2
		}
		g.yMean = rng.NormFloat64()
		cur := make([]int, 0, p)
		for j := 0; j < p; j++ {
			if rng.Intn(4) > 0 || j == 0 {
				cur = append(cur, j)
			}
		}
		g.factorBase(cur)
		got, want := make([]float64, p+1), make([]float64, p+1)
		for drop := range cur {
			trial := append(append([]int(nil), cur[:drop]...), cur[drop+1:]...)
			clear(got)
			clear(want)
			err := g.solveDrop(cur, drop, trial, got)
			wantErr := refSolve(g, trial, want)
			if !errors.Is(err, wantErr) {
				t.Fatalf("case %d drop %d: error %v, want %v", c, drop, err, wantErr)
			}
			if err != nil {
				continue
			}
			if e := sameBits(fmt.Sprintf("case %d drop %d (base ok %v): beta", c, drop, g.baseOK), got, want); e != nil {
				t.Fatal(e)
			}
		}
	}
}
