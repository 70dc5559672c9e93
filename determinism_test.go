// Determinism regression tests for the parallel execution layer: every
// concurrent stage — suite simulation, split scoring, CV folds, bootstrap
// resampling, bagged trees — must produce byte-identical results at
// Jobs=1 (the exact serial path), Jobs=4, and Jobs=GOMAXPROCS. These
// tests are the enforcement of the contract documented in DESIGN.md
// ("Parallel execution"); run them with -race to also prove the
// goroutine code clean.
package repro_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/march"
	"repro/internal/mtree"
	"repro/internal/parallel"
	"repro/internal/refute"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/workload"
)

// jobVariants are the worker counts every stage is checked across.
func jobVariants() []int {
	return []int{1, 4, runtime.GOMAXPROCS(0)}
}

// detDataset synthesizes a deterministic piecewise-linear dataset large
// enough (n >= splitParallelMinRows) that mtree's concurrent
// split-scoring path is actually exercised at the root.
func detDataset(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "y"}, {Name: "x1"}, {Name: "x2"}, {Name: "x3"}, {Name: "const"},
	}, 0)
	for i := 0; i < n; i++ {
		x1 := rng.Float64() * 4
		x2 := rng.Float64() * 4
		x3 := rng.Float64() * 4
		y := 1 + 0.5*x2
		if x1 > 2 {
			y = 10 + 2*x3
		}
		// "const" is identical everywhere: it exercises the
		// constant-attribute skip in the split search.
		d.MustAppend(dataset.Instance{y + 0.1*rng.NormFloat64(), x1, x2, x3, 3.25})
	}
	return d
}

// TestCollectSuiteDeterministicAcrossJobs asserts the collection dataset
// (rows, labels and breakdown count) hashes identically for every worker
// count.
func TestCollectSuiteDeterministicAcrossJobs(t *testing.T) {
	suite := workload.SuiteScaled(0.03)
	var want [32]byte
	var wantLabels []counters.SectionLabel
	for i, jobs := range jobVariants() {
		cfg := counters.DefaultCollectConfig()
		cfg.Jobs = jobs
		col, err := counters.CollectSuite(suite, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := col.Data.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(buf.Bytes())
		if i == 0 {
			want = h
			wantLabels = col.Labels
			continue
		}
		if h != want {
			t.Errorf("jobs=%d produced a different dataset hash than jobs=1", jobs)
		}
		if len(col.Labels) != len(wantLabels) {
			t.Fatalf("jobs=%d produced %d labels, want %d", jobs, len(col.Labels), len(wantLabels))
		}
		for j := range col.Labels {
			if col.Labels[j] != wantLabels[j] {
				t.Fatalf("jobs=%d label %d = %+v, want %+v", jobs, j, col.Labels[j], wantLabels[j])
			}
		}
	}
}

// TestTreeDeterministicAcrossJobs asserts the rendered tree structure and
// its full-precision JSON form (every threshold and coefficient) are
// identical for every split-scoring worker count.
func TestTreeDeterministicAcrossJobs(t *testing.T) {
	d := detDataset(3000, 11)
	var wantTree, wantJSON string
	for i, jobs := range jobVariants() {
		cfg := mtree.DefaultConfig()
		cfg.MinLeaf = 50
		cfg.Jobs = jobs
		tree, err := mtree.Build(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := tree.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		gotTree, gotJSON := tree.String(), js.String()
		if i == 0 {
			wantTree, wantJSON = gotTree, gotJSON
			continue
		}
		if gotTree != wantTree {
			t.Errorf("jobs=%d tree differs from jobs=1:\n%s\nvs\n%s", jobs, gotTree, wantTree)
		}
		if gotJSON != wantJSON {
			t.Errorf("jobs=%d tree JSON differs from jobs=1", jobs)
		}
	}
}

// TestCrossValidateDeterministicAcrossJobs asserts pooled metrics and the
// out-of-fold prediction vector are bit-identical for every fold worker
// count.
func TestCrossValidateDeterministicAcrossJobs(t *testing.T) {
	d := detDataset(2500, 12)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 50
	learner := eval.LearnerFunc{N: "M5'", F: func(d *dataset.Dataset) (eval.Regressor, error) {
		return mtree.Build(d, cfg)
	}}
	var want eval.CVResult
	for i, jobs := range jobVariants() {
		res, err := eval.CrossValidate(learner, d, 5, 7, parallel.Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			continue
		}
		if res.Pooled != want.Pooled {
			t.Errorf("jobs=%d pooled metrics %+v, want %+v", jobs, res.Pooled, want.Pooled)
		}
		if len(res.Predicted) != len(want.Predicted) {
			t.Fatalf("jobs=%d produced %d predictions, want %d", jobs, len(res.Predicted), len(want.Predicted))
		}
		for j := range res.Predicted {
			if res.Predicted[j] != want.Predicted[j] || res.Actual[j] != want.Actual[j] {
				t.Fatalf("jobs=%d prediction %d differs", jobs, j)
			}
		}
	}
}

// TestBootstrapCIDeterministicAcrossJobs asserts identical confidence
// intervals for every resample worker count.
func TestBootstrapCIDeterministicAcrossJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 400
	pred := make([]float64, n)
	act := make([]float64, n)
	for i := range act {
		act[i] = rng.NormFloat64()
		pred[i] = act[i] + 0.2*rng.NormFloat64()
	}
	var wc, wm, wr eval.Interval
	for i, jobs := range jobVariants() {
		c, m, r, err := eval.BootstrapCI(pred, act, 200, 0.95, 5, parallel.Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			wc, wm, wr = c, m, r
			continue
		}
		if c != wc || m != wm || r != wr {
			t.Errorf("jobs=%d intervals (%v %v %v) differ from jobs=1 (%v %v %v)", jobs, c, m, r, wc, wm, wr)
		}
	}
}

// TestEnsembleDeterministicAcrossJobs asserts the bagged ensemble — member
// predictions, OOB error and coverage — is identical for every tree
// worker count, and that a member's bootstrap sample does not depend on
// the ensemble size (the per-tree seed derivation guarantee).
func TestEnsembleDeterministicAcrossJobs(t *testing.T) {
	d := detDataset(1200, 13)
	base := ensemble.DefaultConfig()
	base.Trees = 8
	base.Tree.MinLeaf = 60
	probe := dataset.Instance{0, 1.7, 2.2, 0.4, 3.25}

	var want *ensemble.Bagger
	for i, jobs := range jobVariants() {
		cfg := base
		cfg.Jobs = jobs
		b, err := ensemble.Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = b
			continue
		}
		if b.OOBError != want.OOBError || b.OOBCoverage != want.OOBCoverage {
			t.Errorf("jobs=%d OOB (%v, %v) differs from jobs=1 (%v, %v)",
				jobs, b.OOBError, b.OOBCoverage, want.OOBError, want.OOBCoverage)
		}
		if got, exp := b.Predict(probe), want.Predict(probe); got != exp {
			t.Errorf("jobs=%d ensemble prediction %v, want %v", jobs, got, exp)
		}
		for ti := range b.Trees {
			if got, exp := b.Trees[ti].Predict(probe), want.Trees[ti].Predict(probe); got != exp {
				t.Errorf("jobs=%d member %d predicts %v, want %v", jobs, ti, got, exp)
			}
		}
	}

	// Growing the ensemble must not perturb the earlier members' samples:
	// tree t is seeded by (Seed, t) alone.
	bigger := base
	bigger.Trees = base.Trees + 4
	bb, err := ensemble.Train(d, bigger)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < base.Trees; ti++ {
		if got, exp := bb.Trees[ti].Predict(probe), want.Trees[ti].Predict(probe); got != exp {
			t.Errorf("member %d changed when Trees grew from %d to %d", ti, base.Trees, bigger.Trees)
		}
	}
}

// TestRefutationDeterministicAcrossHandoff asserts the serving stack's
// refutation verdicts are a pure function of the ingested stream: a
// session drained mid-trace into a fresh server and restored there
// answers the rest of the trace exactly as an uninterrupted session
// does. The concatenated /v1/stream NDJSON responses (events, summary,
// refutation digest) and the final GET /v1/sessions/{id}/refutation
// report are compared byte for byte. The trace goes bad mid-way (a
// negated DTLB rate) and the handoff lands inside a refutation window,
// so the invariance covers violated windows, streaks and verdict
// transitions, not just the all-clean path. (Scoring has no worker
// count: every sample is scored on arrival.)
func TestRefutationDeterministicAcrossHandoff(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}, {Name: "DtlbLdM"},
	}, 0)
	for i := 0; i < 900; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		d.MustAppend(dataset.Instance{0.6 + 7*l1 + 90*l2 + 40*dt + 0.02*rng.NormFloat64(), l1, l2, dt})
	}
	mcfg := mtree.DefaultConfig()
	mcfg.MinLeaf = 60
	tree, err := mtree.Build(d, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	var trace strings.Builder
	enc := json.NewEncoder(&trace)
	for i := 0; i < 64; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		if i >= 24 {
			dt = -dt // impossible reading: violates nonneg-DtlbLdM
		}
		cpi := 0.6 + 7*l1 + 90*l2
		s := stream.Sample{Bench: "det", Section: i, CPI: &cpi,
			Events: map[string]float64{"L1IM": l1, "L2M": l2, "DtlbLdM": dt}}
		if err := enc.Encode(&s); err != nil {
			t.Fatal(err)
		}
	}

	newHandler := func() http.Handler {
		reg := serve.NewRegistry()
		if err := reg.Register("cpi", "v1", tree, ""); err != nil {
			t.Fatal(err)
		}
		scfg := serve.DefaultConfig()
		scfg.CacheSize = 0
		return serve.New(reg, scfg).Handler()
	}
	serveOne := func(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return rec
	}
	const streamPath = "/v1/stream?model=cpi&session=det"
	const reportPath = "/v1/sessions/det/refutation?model=cpi"
	lines := strings.SplitAfter(trace.String(), "\n")
	first, rest := strings.Join(lines[:40], ""), strings.Join(lines[40:], "")

	// The uninterrupted run: the same two requests on one server.
	h := newHandler()
	wantStream := serveOne(h, http.MethodPost, streamPath, first).Body.String() +
		serveOne(h, http.MethodPost, streamPath, rest).Body.String()
	wantReport := serveOne(h, http.MethodGet, reportPath, "").Body.String()
	if !strings.Contains(wantReport, `"verdict":"refuted"`) {
		t.Fatalf("corrupted trace was not refuted: %s", wantReport)
	}

	// The handoff run: drain after section 40, inside the second
	// refutation window, and restore into a fresh server.
	if 40%refute.WindowSections == 0 {
		t.Fatal("handoff at a window boundary: the test no longer crosses an open window")
	}
	h = newHandler()
	gotStream := serveOne(h, http.MethodPost, streamPath, first).Body.String()
	dump := serveOne(h, http.MethodPost, "/v1/sessions/drain", "").Body.String()
	h = newHandler()
	serveOne(h, http.MethodPost, "/v1/sessions/restore", dump)
	gotStream += serveOne(h, http.MethodPost, streamPath, rest).Body.String()
	if gotStream != wantStream {
		t.Errorf("/v1/stream responses differ across a drain/restore handoff:\n got  %s\n want %s", gotStream, wantStream)
	}
	if got := serveOne(h, http.MethodGet, reportPath, "").Body.String(); got != wantReport {
		t.Errorf("refutation report differs across a drain/restore handoff:\n got  %s\n want %s", got, wantReport)
	}
}

// TestCollectSuiteMachinesDeterministicAcrossJobs asserts the
// cross-architecture fan-out keeps both halves of its contract: every
// machine's collection hashes identically at every worker count, and
// each equals the collection a standalone CollectSuite would produce for
// that machine alone — so pooled cross-architecture datasets are
// byte-stable no matter how the (machine, benchmark) units were
// scheduled.
func TestCollectSuiteMachinesDeterministicAcrossJobs(t *testing.T) {
	suite := workload.SuiteScaled(0.02)
	specs := march.CrossArchSet()[:3]
	var want []([32]byte)
	for i, jobs := range jobVariants() {
		base := counters.DefaultCollectConfig()
		base.Jobs = jobs
		mcols, err := counters.CollectSuiteMachines(suite, specs, base)
		if err != nil {
			t.Fatal(err)
		}
		if len(mcols) != len(specs) {
			t.Fatalf("jobs=%d returned %d collections, want %d", jobs, len(mcols), len(specs))
		}
		hashes := make([][32]byte, len(mcols))
		for m, mc := range mcols {
			if mc.Machine.Name != specs[m].Name {
				t.Fatalf("jobs=%d collection %d is for %q, want %q", jobs, m, mc.Machine.Name, specs[m].Name)
			}
			var buf bytes.Buffer
			if err := mc.Col.Data.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			hashes[m] = sha256.Sum256(buf.Bytes())
		}
		if i == 0 {
			want = hashes
			// The fan-out must be unobservable: machine m's collection is
			// exactly what a dedicated CollectSuite produces for m.
			for m, spec := range specs {
				solo := counters.CollectConfigFor(spec)
				col, err := counters.CollectSuite(suite, solo)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := col.Data.WriteCSV(&buf); err != nil {
					t.Fatal(err)
				}
				if sha256.Sum256(buf.Bytes()) != hashes[m] {
					t.Errorf("machine %s: fan-out collection differs from standalone CollectSuite", spec.Name)
				}
			}
			continue
		}
		for m := range hashes {
			if hashes[m] != want[m] {
				t.Errorf("jobs=%d machine %s hash differs from jobs=1", jobs, specs[m].Name)
			}
		}
	}
}
