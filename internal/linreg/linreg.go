// Package linreg implements multiple linear regression for the model-tree
// leaf models and for the standalone linear baseline.
//
// Fit solves ordinary least squares by Householder QR, which is
// numerically robust for the near-collinear event-counter columns that
// arise in practice (e.g. DtlbLdM and DtlbLdReM are highly correlated).
// When the design matrix is rank deficient it retries on the normal
// equations with a small ridge term, solved by Cholesky.
//
// FitGreedy is the greedy attribute-elimination loop used by M5/M5'. It
// drops attributes while doing so reduces the Akaike-style
// complexity-corrected training error err*(n+v)/(n-v), yielding the
// compact, interpretable leaf equations shown in the paper (Eq. 4 and
// Eq. 5). It accumulates standardized normal equations once and solves
// every candidate subset on them with a small ridge by Cholesky. Each
// round of the search factors the current set once; the trial that
// drops one attribute resumes that factor and factors only the columns
// right of the dropped one (cholFrom), with results bit-identical to a
// fresh factorization. Only Fit uses QR.
package linreg

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Model is a fitted linear model: y = Intercept + sum_i Coef[i]*x[Attrs[i]].
// Attrs holds dataset column indices; Names holds the matching attribute
// names for rendering.
type Model struct {
	Intercept float64
	Attrs     []int
	Coefs     []float64
	Names     []string
}

// Predict evaluates the model on a full-width instance (indexed by dataset
// column).
func (m *Model) Predict(row dataset.Instance) float64 {
	y := m.Intercept
	for i, a := range m.Attrs {
		y += m.Coefs[i] * row[a]
	}
	return y
}

// NumParams returns the number of fitted parameters (coefficients plus
// intercept), used by complexity-corrected error estimates.
func (m *Model) NumParams() int { return len(m.Coefs) + 1 }

// Uses reports whether the model has a nonzero term for dataset column a.
func (m *Model) Uses(a int) bool {
	for i, idx := range m.Attrs {
		if idx == a && m.Coefs[i] != 0 {
			return true
		}
	}
	return false
}

// Coef returns the coefficient for dataset column a, or 0 when the column
// is not in the model.
func (m *Model) Coef(a int) float64 {
	for i, idx := range m.Attrs {
		if idx == a {
			return m.Coefs[i]
		}
	}
	return 0
}

// String renders the model in the paper's leaf-equation style, e.g.
// "CPI = 0.52 + 139.91*ItlbM + 6.69*L1IM".
func (m *Model) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.4g", m.Intercept)
	type term struct {
		coef float64
		name string
	}
	terms := make([]term, 0, len(m.Coefs))
	for i, c := range m.Coefs {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("x%d", m.Attrs[i])
		if i < len(m.Names) && m.Names[i] != "" {
			name = m.Names[i]
		}
		terms = append(terms, term{c, name})
	}
	// Sort by descending absolute coefficient so the dominant events lead.
	sort.SliceStable(terms, func(i, j int) bool {
		return math.Abs(terms[i].coef) > math.Abs(terms[j].coef)
	})
	for _, t := range terms {
		if t.coef >= 0 {
			fmt.Fprintf(&b, " + %.4g*%s", t.coef, t.name)
		} else {
			fmt.Fprintf(&b, " - %.4g*%s", -t.coef, t.name)
		}
	}
	return b.String()
}

// ErrSingular is returned when the normal system cannot be solved even with
// ridge regularization.
var ErrSingular = errors.New("linreg: singular design matrix")

// Fit performs ordinary least squares of the dataset target on the given
// feature columns. It returns an error for an empty feature list only when
// the dataset is empty; fitting on zero rows is an error.
func Fit(d *dataset.Dataset, features []int) (*Model, error) {
	n := d.Len()
	if n == 0 {
		return nil, errors.New("linreg: cannot fit on empty dataset")
	}
	p := len(features) + 1 // +1 for intercept column
	// Build the design matrix column-major is unnecessary; row-major and
	// QR via Householder on a copy.
	a := make([]float64, n*p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		a[i*p] = 1
		for j, f := range features {
			a[i*p+1+j] = row[f]
		}
		y[i] = d.Target(i)
	}
	beta, err := solveLS(a, y, n, p)
	if err != nil {
		// Retry with a ridge term scaled to the column magnitudes.
		beta, err = solveRidge(d, features, 1e-8)
		if err != nil {
			return nil, err
		}
	}
	m := &Model{
		Intercept: beta[0],
		Attrs:     append([]int(nil), features...),
		Coefs:     beta[1:],
		Names:     namesFor(d, features),
	}
	sanitize(m)
	return m, nil
}

func namesFor(d *dataset.Dataset, features []int) []string {
	names := make([]string, len(features))
	attrs := d.Attrs()
	for i, f := range features {
		names[i] = attrs[f].Name
	}
	return names
}

// sanitize zeroes out non-finite coefficients, which can appear when a
// column is constant within a leaf.
func sanitize(m *Model) {
	if math.IsNaN(m.Intercept) || math.IsInf(m.Intercept, 0) {
		m.Intercept = 0
	}
	for i, c := range m.Coefs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			m.Coefs[i] = 0
		}
	}
}

// solveLS solves min ||A x - y|| by Householder QR. A is row-major n x p,
// destroyed in place. It returns ErrSingular when a diagonal of R is (near)
// zero.
func solveLS(a, y []float64, n, p int) ([]float64, error) {
	if n < p {
		return nil, ErrSingular
	}
	// Householder QR: for each column k, form the reflector from a[k:n, k]
	// and apply to remaining columns and to y.
	for k := 0; k < p; k++ {
		// Compute norm of column k below row k.
		norm := 0.0
		for i := k; i < n; i++ {
			v := a[i*p+k]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, ErrSingular
		}
		if a[k*p+k] > 0 {
			norm = -norm
		}
		// v = column; v[k] -= norm; normalize implicitly via vTv.
		a[k*p+k] -= norm
		vtv := 0.0
		for i := k; i < n; i++ {
			v := a[i*p+k]
			vtv += v * v
		}
		if vtv == 0 {
			return nil, ErrSingular
		}
		// Apply reflector to columns k+1..p-1.
		for j := k + 1; j < p; j++ {
			dot := 0.0
			for i := k; i < n; i++ {
				dot += a[i*p+k] * a[i*p+j]
			}
			f := 2 * dot / vtv
			for i := k; i < n; i++ {
				a[i*p+j] -= f * a[i*p+k]
			}
		}
		// Apply to y.
		dot := 0.0
		for i := k; i < n; i++ {
			dot += a[i*p+k] * y[i]
		}
		f := 2 * dot / vtv
		for i := k; i < n; i++ {
			y[i] -= f * a[i*p+k]
		}
		// Store R diagonal in place of the reflector head.
		a[k*p+k] = norm
	}
	// Back substitution on R (upper triangular, stored in a[0:p, 0:p] with
	// the strict lower part holding reflector data we no longer need).
	x := make([]float64, p)
	for k := p - 1; k >= 0; k-- {
		s := y[k]
		for j := k + 1; j < p; j++ {
			s -= a[k*p+j] * x[j]
		}
		r := a[k*p+k]
		if math.Abs(r) < 1e-12 {
			return nil, ErrSingular
		}
		x[k] = s / r
	}
	return x, nil
}

// solveRidge solves the normal equations (X'X + lambda*I) b = X'y by
// Cholesky factorization. Used as a fallback for rank-deficient designs.
func solveRidge(d *dataset.Dataset, features []int, lambda float64) ([]float64, error) {
	n := d.Len()
	p := len(features) + 1
	xtx := make([]float64, p*p)
	xty := make([]float64, p)
	xi := make([]float64, p)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		xi[0] = 1
		for j, f := range features {
			xi[1+j] = row[f]
		}
		yv := d.Target(i)
		for r := 0; r < p; r++ {
			xty[r] += xi[r] * yv
			for c := r; c < p; c++ {
				xtx[r*p+c] += xi[r] * xi[c]
			}
		}
	}
	// Scale ridge by the mean diagonal so it is unit-free.
	diagMean := 0.0
	for r := 0; r < p; r++ {
		diagMean += xtx[r*p+r]
	}
	diagMean /= float64(p)
	reg := lambda * (diagMean + 1)
	m := make([]float64, p*p)
	z, x := make([]float64, p), make([]float64, p)
	for attempt := 0; attempt < 8; attempt++ {
		copy(m, xtx)
		for r := 0; r < p; r++ {
			m[r*p+r] += reg
			for c := 0; c < r; c++ {
				m[r*p+c] = m[c*p+r]
			}
		}
		if cholSolve(m, xty, z, x, p) {
			return x, nil
		}
		reg *= 100
	}
	return nil, ErrSingular
}

// cholSolve solves the symmetric positive-definite p x p system m x = y by
// Cholesky factorization m = L L', reading only m's lower triangle. It
// overwrites that triangle with L, writes the forward-substitution result
// L z = y into z and the solution into x, and allocates nothing. It
// reports false when m is not positive definite.
func cholSolve(m, y, z, x []float64, p int) bool {
	return cholFrom(m, y, z, x, p, 0)
}

// cholFrom is cholSolve resumed at column from. Every entry of L and of z
// is one sequential sum over the earlier columns, subtracted in column
// order; cholFrom expects the first from of those subtractions done. On
// entry m's columns < from already hold L, its trailing lower triangle
// holds the entries of the system minus their column-< from terms, z[:from]
// holds the forward-substitution result, and y[from:] holds the right-hand
// side minus its column-< from terms. The result is then bit-identical to
// cholSolve on the whole system, and a system that is not positive definite
// fails at the same column.
func cholFrom(m, y, z, x []float64, p, from int) bool {
	for k := from; k < p; k++ {
		rowK := m[k*p+from : k*p+k]
		s := m[k*p+k]
		for _, v := range rowK {
			s -= v * v
		}
		if s <= 0 {
			return false
		}
		m[k*p+k] = math.Sqrt(s)
		for i := k + 1; i < p; i++ {
			rowI := m[i*p+from : i*p+k]
			s := m[i*p+k]
			for j, v := range rowK {
				s -= rowI[j] * v
			}
			m[i*p+k] = s / m[k*p+k]
		}
	}
	for i := from; i < p; i++ {
		rowI := m[i*p+from : i*p+i]
		s := y[i]
		for j, v := range rowI {
			s -= v * z[from+j]
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

// MeanAbsError returns the mean absolute training error of the model on d.
func MeanAbsError(m *Model, d *dataset.Dataset) float64 {
	n := d.Len()
	if n == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += math.Abs(m.Predict(d.Row(i)) - d.Target(i))
	}
	return s / float64(n)
}

// CorrectedError is the M5 complexity-corrected error: the mean absolute
// error multiplied by (n+v)/(n-v), where v is the number of fitted
// parameters. It penalizes models with many parameters relative to the
// amount of data, and is the criterion used both for attribute dropping and
// for pruning decisions.
func CorrectedError(m *Model, d *dataset.Dataset) float64 {
	n := float64(d.Len())
	v := float64(m.NumParams())
	mae := MeanAbsError(m, d)
	if n-v <= 0 {
		// More parameters than data: treat as maximally complex.
		return mae * 10
	}
	return mae * (n + v) / (n - v)
}

// FitGreedy fits an OLS model on the candidate features and then greedily
// removes attributes while removal improves the complexity-corrected error.
// This is the M5' leaf-model simplification step and is what produces the
// sparse, readable equations in the paper.
//
// The search runs on cached normal equations: X'X and X'y are accumulated
// once over the data, and every candidate subset is solved by Cholesky on
// the matching submatrix instead of a fresh O(n p^2) decomposition. Each
// round tries the current set minus one attribute, so it factors the
// current set once and resumes that factor for every trial: the trial
// that drops active column a shares the factor's columns left of a and
// factors only its trailing block, O((p-a)^3) instead of O(p^3). The
// resumed solve is bit-identical to a full one (see cholFrom). Every
// candidate reuses the scratch greedyState owns, so the allocations of
// one call do not grow with the number of candidates tried.
func FitGreedy(d *dataset.Dataset, features []int) (*Model, error) {
	n := d.Len()
	if n == 0 {
		return nil, errors.New("linreg: cannot fit on empty dataset")
	}
	g := newGreedyState(d, features)
	p := len(features)
	// Positions into features: the current set, the best trial of a round
	// and the trial being scored, with the matching [intercept, coefs...].
	cur, next, trial := make([]int, p), make([]int, 0, p), make([]int, 0, p)
	for i := range cur {
		cur[i] = i
	}
	bestBeta, nextBeta, beta := make([]float64, p+1), make([]float64, p+1), make([]float64, p+1)
	if err := g.solve(cur, bestBeta); err != nil {
		return nil, err
	}
	// dropTol accepts a drop that worsens the corrected error by up to
	// this relative amount: rare-event attributes whose contribution is in
	// the noise get removed, keeping leaf models sparse and stable on
	// unseen sections.
	const dropTol = 1e-3
	bestErr := g.correctedError(bestBeta, cur)
	for len(cur) > 0 {
		improved := false
		nextErr := bestErr * (1 + dropTol)
		g.factorBase(cur)
		for drop := range cur {
			trial = append(append(trial[:0], cur[:drop]...), cur[drop+1:]...)
			if err := g.solveDrop(cur, drop, trial, beta); err != nil {
				continue
			}
			if e := g.correctedError(beta, trial); e < nextErr {
				nextErr = e
				next = append(next[:0], trial...)
				copy(nextBeta, beta[:len(trial)+1])
				improved = true
			}
		}
		if !improved {
			break
		}
		bestErr = nextErr
		cur, next = next, cur[:0]
		bestBeta, nextBeta = nextBeta, bestBeta
	}
	attrs := make([]int, len(cur))
	for i, pos := range cur {
		attrs[i] = features[pos]
	}
	coefs := make([]float64, len(cur))
	copy(coefs, bestBeta[1:])
	m := &Model{
		Intercept: bestBeta[0],
		Attrs:     attrs,
		Coefs:     coefs,
		Names:     namesFor(d, attrs),
	}
	sanitize(m)
	return m, nil
}

// ridgeRel is the relative ridge applied in standardized space during the
// greedy search, like Weka's LinearRegression ridge. It bounds the
// coefficients of near-collinear counter pairs (DtlbLdM vs DtlbLdReM are
// correlated above 0.99 on this data) so leaf models stay stable on unseen
// sections instead of exploding with huge opposite-sign pairs.
const ridgeRel = 1e-6

// greedyState caches standardized normal equations over the candidate
// features plus the raw data needed to score candidate subsets. Solving in
// standardized space keeps the system well conditioned even though raw
// event rates span five orders of magnitude. Candidate sets are positions
// into the feature list; the trial and round scratch is sized for the
// full set once, so solving and scoring a candidate allocates nothing.
type greedyState struct {
	mean  []float64 // per-feature means
	sd    []float64 // per-feature standard deviations (0 for constants)
	yMean float64
	xtx   []float64   // standardized X'X (len(features) square)
	xty   []float64   // standardized X'(y - yMean)
	cols  [][]float64 // raw feature columns by position, one value per row
	y     []float64   // raw target by row

	// Trial scratch.
	active []int     // non-constant positions of the set being solved
	chol   []float64 // ridge submatrix, overwritten by its Cholesky factor
	rhs    []float64 // X'y restricted to active
	z, x   []float64 // forward-substitution result and standardized solution
	pred   []float64 // per-row prediction of the candidate being scored

	// Round scratch: the current set's factor at the first ridge, which
	// solveDrop resumes for each one-drop trial. part starts as that
	// set's system and loses the terms of baseL's columns < partCol.
	base         []int     // non-constant positions of the current set
	baseOK       bool      // the current set is positive definite at the first ridge
	baseL        []float64 // its Cholesky factor (lower triangle)
	baseZ, baseX []float64 // its forward-substitution result and solution
	part, partY  []float64 // partial sums of its system (lower triangle) and rhs
	partCol      int
}

func newGreedyState(d *dataset.Dataset, features []int) *greedyState {
	n := d.Len()
	p := len(features)
	// The p-vectors and p x p matrices share one allocation: FitGreedy
	// runs at every node of every tree.
	buf := make([]float64, 9*p+4*p*p)
	take := func(k int) []float64 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	g := &greedyState{
		mean: take(p), sd: take(p), xtx: take(p * p), xty: take(p),
		cols: make([][]float64, p), y: make([]float64, n),
		active: make([]int, 0, p), chol: take(p * p),
		rhs: take(p), z: take(p), x: take(p),
		pred: make([]float64, n),
		base: make([]int, 0, p), baseL: take(p * p),
		baseZ: take(p), baseX: take(p), part: take(p * p), partY: take(p),
	}
	raw := make([]float64, n*p)
	for j, f := range features {
		g.mean[j] = d.ColumnMean(f)
		g.sd[j] = math.Sqrt(d.ColumnVariance(f))
		g.cols[j] = raw[j*n : (j+1)*n]
	}
	g.yMean = d.TargetMean()
	xi := make([]float64, p)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		for j, f := range features {
			g.cols[j][i] = row[f]
			if g.sd[j] > 0 {
				xi[j] = (row[f] - g.mean[j]) / g.sd[j]
			} else {
				xi[j] = 0
			}
		}
		g.y[i] = d.Target(i)
		yc := g.y[i] - g.yMean
		for r := 0; r < p; r++ {
			g.xty[r] += xi[r] * yc
			for c := r; c < p; c++ {
				g.xtx[r*p+c] += xi[r] * xi[c]
			}
		}
	}
	for r := 0; r < p; r++ {
		for c := 0; c < r; c++ {
			g.xtx[r*p+c] = g.xtx[c*p+r]
		}
	}
	return g
}

// solve writes [intercept, coefs...] in *raw* units for the subset of
// feature positions into beta[:len(set)+1], solving the standardized ridge
// system and mapping back.
func (g *greedyState) solve(set []int, beta []float64) error {
	// Keep only non-constant columns; constants get zero coefficients.
	active := g.active[:0]
	for _, pos := range set {
		if g.sd[pos] > 0 {
			active = append(active, pos)
		}
	}
	k := len(active)
	x := g.x[:k]
	if k > 0 {
		m, rhs := g.chol[:k*k], g.rhs[:k]
		reg := g.firstRidge()
		solved := false
		for attempt := 0; attempt < 6 && !solved; attempt++ {
			g.fillSystem(m, rhs, active, reg)
			solved = cholSolve(m, rhs, g.z[:k], x, k)
			reg *= 1000
		}
		if !solved {
			return ErrSingular
		}
	}
	g.unstandardize(set, x, beta)
	return nil
}

// firstRidge is the ridge of solve's first attempt.
func (g *greedyState) firstRidge() float64 { return ridgeRel * float64(len(g.y)) }

// fillSystem writes the lower triangle of the ridge system over the active
// positions into m (len(active) square) and its right-hand side into rhs.
func (g *greedyState) fillSystem(m, rhs []float64, active []int, reg float64) {
	p, k := len(g.mean), len(active)
	for r, pr := range active {
		row := g.xtx[pr*p:]
		for c, pc := range active[:r+1] {
			m[r*k+c] = row[pc]
		}
		m[r*k+r] += reg
		rhs[r] = g.xty[pr]
	}
}

// unstandardize maps the standardized solution x over set's non-constant
// positions, in set order, to [intercept, coefs...] in raw units in
// beta[:len(set)+1]; constant positions get zero coefficients.
func (g *greedyState) unstandardize(set []int, x, beta []float64) {
	beta = beta[:len(set)+1]
	clear(beta)
	i := 0
	for j, pos := range set {
		if g.sd[pos] > 0 {
			beta[1+j] = x[i] / g.sd[pos]
			i++
		}
	}
	beta[0] = g.yMean
	for j, pos := range set {
		beta[0] -= beta[1+j] * g.mean[pos]
	}
}

// factorBase starts a round of one-drop trials from the current set: it
// factors the set's system at the first ridge into baseL and resets the
// partial sums. When that system is not positive definite, solveDrop
// falls back to solve for every trial of the round.
func (g *greedyState) factorBase(set []int) {
	g.base = g.base[:0]
	for _, pos := range set {
		if g.sd[pos] > 0 {
			g.base = append(g.base, pos)
		}
	}
	k := len(g.base)
	g.fillSystem(g.part, g.partY, g.base, g.firstRidge())
	copy(g.baseL[:k*k], g.part[:k*k])
	g.baseOK = cholSolve(g.baseL[:k*k], g.partY[:k], g.baseZ[:k], g.baseX[:k], k)
	g.partCol = 0
}

// solveDrop is solve(trial, beta) for the trial that leaves cur[drop] out
// of the current set cur, with the same result bits. Dropping active
// column a keeps baseL's columns < a (rows below a move up by one), so
// only the trailing block is factored, from the partial sums advanced to
// column a. Dropping a constant leaves the active set, and so the whole
// solution, unchanged. If the trailing block is not positive definite at
// the first ridge, solve's full retry loop runs as it would without the
// resumed factor.
func (g *greedyState) solveDrop(cur []int, drop int, trial []int, beta []float64) error {
	if !g.baseOK {
		return g.solve(trial, beta)
	}
	if g.sd[cur[drop]] == 0 {
		g.unstandardize(trial, g.baseX[:len(g.base)], beta)
		return nil
	}
	a := 0
	for _, pos := range cur[:drop] {
		if g.sd[pos] > 0 {
			a++
		}
	}
	g.advance(a)
	k, t := len(g.base), len(g.base)-1
	m, rhs, z, x := g.chol[:t*t], g.rhs[:t], g.z[:t], g.x[:t]
	copy(z, g.baseZ[:a])
	for r := 0; r < t; r++ {
		if r < a {
			copy(m[r*t:r*t+r+1], g.baseL[r*k:r*k+r+1])
			continue
		}
		src := (r + 1) * k
		copy(m[r*t:r*t+a], g.baseL[src:src+a])
		copy(m[r*t+a:r*t+r+1], g.part[src+a+1:src+r+2])
		rhs[r] = g.partY[r+1]
	}
	if !cholFrom(m, rhs, z, x, t, a) {
		return g.solve(trial, beta)
	}
	g.unstandardize(trial, x, beta)
	return nil
}

// advance subtracts the terms of baseL's columns partCol..a-1 from the
// partial sums, column c's from the block of rows and columns > c, in
// column order: the order cholFrom's sums take them in. Drops within a
// round go left to right, so a never decreases.
func (g *greedyState) advance(a int) {
	k, L, S := len(g.base), g.baseL, g.part
	for ; g.partCol < a; g.partCol++ {
		c := g.partCol
		for i := c + 1; i < k; i++ {
			lic := L[i*k+c]
			for j := c + 1; j <= i; j++ {
				S[i*k+j] -= lic * L[j*k+c]
			}
			g.partY[i] -= lic * g.baseZ[c]
		}
	}
}

// correctedError computes MAE*(n+v)/(n-v) for a candidate solution. Each
// row's prediction is summed as beta[0] and then the terms in set order;
// the terms stream over whole columns. The last term is added in the
// pass that sums the absolute errors, which saves a store and a reload
// of every row's prediction and leaves each sum's order as it was.
func (g *greedyState) correctedError(beta []float64, set []int) float64 {
	pred := g.pred
	for i := range pred {
		pred[i] = beta[0]
	}
	s := 0.0
	if last := len(set) - 1; last < 0 {
		for i, yv := range g.y {
			s += math.Abs(pred[i] - yv)
		}
	} else {
		for j, pos := range set[:last] {
			b := beta[1+j]
			for i, v := range g.cols[pos] {
				pred[i] += b * v
			}
		}
		b, col := beta[1+last], g.cols[set[last]]
		for i, yv := range g.y {
			s += math.Abs(pred[i] + b*col[i] - yv)
		}
	}
	nf := float64(len(g.y))
	mae := s / nf
	v := float64(len(set) + 1)
	if nf-v <= 0 {
		return mae * 10
	}
	return mae * (nf + v) / (nf - v)
}

// FitConstant returns the intercept-only model (the mean of the target),
// which is both the regression-tree leaf and the degenerate M5' leaf such
// as the paper's LM18 (CPI = 2.2).
func FitConstant(d *dataset.Dataset) *Model {
	return &Model{Intercept: d.TargetMean()}
}
