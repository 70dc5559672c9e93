package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/loadgen"
	"repro/internal/mtree"
	"repro/internal/serve"
)

func testServer(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	d := dataset.MustNew([]dataset.Attribute{
		{Name: "CPI"}, {Name: "L1IM"}, {Name: "L2M"}, {Name: "DtlbLdM"},
	}, 0)
	for i := 0; i < 1000; i++ {
		l1 := rng.Float64() * 0.02
		l2 := rng.Float64() * 0.005
		dt := rng.Float64() * 0.001
		d.MustAppend(dataset.Instance{0.6 + 7*l1 + 90*l2 + 40*dt, l1, l2, dt})
	}
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(reg, serve.DefaultConfig()).Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRunEndToEnd drives the whole CLI: discovery, synthesis, replay,
// report and validation exit status.
func TestRunEndToEnd(t *testing.T) {
	base := testServer(t)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-target", base, "-model", "cpi",
		"-mode", "steady", "-duration", "400ms", "-rps", "120",
		"-seed", "9", "-workers", "16",
		"-out", outPath,
		"-max-error-budget", "0",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadgen.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Totals.OK == 0 || rep.Totals.Errors != 0 {
		t.Errorf("totals: %+v", rep.Totals)
	}
	if rep.Validation == nil || !rep.Validation.Consistent || !rep.Validation.Exact {
		t.Fatalf("validation: %+v", rep.Validation)
	}
	if !strings.Contains(stderr.String(), "validation ok") {
		t.Errorf("summary missing validation verdict:\n%s", stderr.String())
	}
}

// TestRunFlagErrors pins the CLI's refusal paths.
func TestRunFlagErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-target", "http://127.0.0.1:0"}, &out, &errBuf); err == nil {
		t.Error("missing -model accepted")
	}
	if err := run([]string{"-model", "cpi", "-mode", "warp"}, &out, &errBuf); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-model", "cpi", "-mix", "bogus"}, &out, &errBuf); err == nil {
		t.Error("bad mix accepted")
	}
	base := testServer(t)
	if err := run([]string{"-target", base, "-model", "ghost"}, &out, &errBuf); err == nil {
		t.Error("unknown model accepted")
	}
	// All-error traffic must trip the budget gate... but an unknown
	// model fails discovery first, so aim real traffic at a tight
	// budget with an impossible lateness bound instead.
	err := run([]string{
		"-target", base, "-model", "cpi",
		"-duration", "200ms", "-rps", "300", "-workers", "1", "-queue", "1",
		"-max-lateness", "1ns", "-max-error-budget", "0", "-out", os.DevNull,
	}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "error budget") {
		t.Errorf("budget gate did not trip: %v", err)
	}
}

// TestSummarizeSortsErrorCodes pins the order of the "N x code" lines:
// the summary must print them by code, not in map order, so two runs of
// the same trace write the same stderr.
func TestSummarizeSortsErrorCodes(t *testing.T) {
	predict, stream := map[string]int{}, map[string]int{}
	var want []string
	for k := 0; k < 12; k++ {
		code := fmt.Sprintf("code_%02d", k)
		if k%2 == 0 {
			predict[code] = k + 1
		} else {
			stream[code] = k + 1
		}
		want = append(want, fmt.Sprintf("loadgen:   %d x %s", k+1, code))
	}
	rep := &loadgen.Report{
		Endpoints: map[string]*loadgen.EndpointReport{
			"predict": {ErrorsByCode: predict},
			"stream":  {ErrorsByCode: stream},
		},
		Validation: &loadgen.Validation{Exact: true, Consistent: true},
	}
	for run := 0; run < 20; run++ {
		var buf bytes.Buffer
		summarize(&buf, rep)
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "loadgen:   ") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d: error lines\n%s\nwant\n%s", run, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}
