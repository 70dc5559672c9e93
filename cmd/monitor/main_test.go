package main

// Smoke tests for the monitor CLI: the self-verifying -demo mode, a
// model-file + sample-file run with NDJSON events on stdout, and the
// usage error paths.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mtree"
	"repro/internal/proptest"
	"repro/internal/stream"
)

func TestRunDemoPasses(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-demo", "-render", "0"}, strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatalf("run -demo: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "demo: PASS") {
		t.Fatalf("demo did not self-verify:\n%s", stderr.String())
	}
	// Machine-readable events land on stdout as NDJSON.
	dec := json.NewDecoder(strings.NewReader(stdout.String()))
	events := 0
	for dec.More() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("non-NDJSON event output: %v", err)
		}
		if ev.Type == "" {
			t.Fatal("event without a type")
		}
		events++
	}
	if events == 0 {
		t.Fatal("demo emitted no events")
	}
}

// TestRefuteDrill pins the refutation drill's exit-status contract: the
// clean demo with -refute prints a consistent relation table and exits
// zero; the corrupted demo is refuted, names the violated relation, and
// exits non-zero; -no-refute disables checking entirely.
func TestRefuteDrill(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-demo", "-refute", "-render", "0"}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("clean demo with -refute: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "counter consistency: consistent") {
		t.Errorf("clean drill table missing the consistent verdict:\n%s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-demo", "-demo-corrupt", "-refute", "-render", "0"},
		strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Fatal("corrupted demo with -refute exited zero")
	}
	out := stderr.String()
	if !strings.Contains(out, "counter consistency: refuted") || !strings.Contains(out, "nonneg-DtlbLdM") {
		t.Errorf("corrupt drill table incomplete:\n%s", out)
	}
	if !strings.Contains(stdout.String(), `"type":"refute"`) {
		t.Error("no refute events in the NDJSON output")
	}

	stdout.Reset()
	stderr.Reset()
	if err := run([]string{"-demo", "-demo-corrupt", "-no-refute", "-render", "0"},
		strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("corrupted demo with -no-refute failed: %v\n%s", err, stderr.String())
	}
	if err := run([]string{"-demo", "-refute", "-no-refute"},
		strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("-refute together with -no-refute was accepted")
	}
}

func TestRunScoresSampleFile(t *testing.T) {
	r := proptest.NewRand(proptest.CaseSeed("monitor-smoke", 0))
	d := proptest.PerfDataset(r, 300)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 40
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	treePath := filepath.Join(dir, "tree.json")
	tf, err := os.Create(treePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteJSON(tf); err != nil {
		t.Fatal(err)
	}
	tf.Close()

	const samples = 40
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	for i := 0; i < samples; i++ {
		cpi := r.Range(0.5, 2)
		s := stream.Sample{Section: i, CPI: &cpi, Events: map[string]float64{
			"L1IM": r.Range(0, 0.01), "L2M": r.Range(0, 0.004), "DtlbLdM": r.Range(0, 0.001),
		}}
		if err := enc.Encode(&s); err != nil {
			t.Fatal(err)
		}
	}
	inPath := filepath.Join(dir, "samples.ndjson")
	if err := os.WriteFile(inPath, ndjson.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	err = run([]string{"-model", treePath, "-in", inPath, "-quiet"},
		strings.NewReader(""), &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	got := 0
	dec := json.NewDecoder(strings.NewReader(stdout.String()))
	for dec.More() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "sample" {
			got++
		}
	}
	if got != samples {
		t.Fatalf("%d sample events for %d input samples", got, samples)
	}
}

func TestRunFlagErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("run without -model or -demo succeeded")
	}
	if err := run([]string{"-model", "/no/such/model.json"},
		strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Error("unreadable -model path was accepted")
	}
}
