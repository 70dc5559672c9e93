package main

// Smoke tests for the serve CLI's assembly path: newServer parses the
// command line, loads the model files into the registry, and returns a
// fully wired handler — all without touching the network.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mtree"
	"repro/internal/proptest"
)

// writeTreeFile persists a small trained tree for -model flags.
func writeTreeFile(t *testing.T) string {
	t.Helper()
	d := proptest.PerfDataset(proptest.NewRand(proptest.CaseSeed("serve-smoke", 0)), 300)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 40
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tree.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tree.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNewServerServesLoadedModel(t *testing.T) {
	treePath := writeTreeFile(t)
	var logBuf bytes.Buffer
	srv, pprofSrv, nmodels, err := newServer([]string{
		"-model", "cpi=" + treePath,
		"-model", "cpi@v2=" + treePath,
		"-addr", "127.0.0.1:0",
	}, &logBuf)
	if err != nil {
		t.Fatalf("newServer: %v\n%s", err, logBuf.String())
	}
	if nmodels != 2 {
		t.Fatalf("registered %d models, want 2", nmodels)
	}
	if pprofSrv != nil {
		t.Fatal("pprof server built without -pprof")
	}
	h := srv.Handler

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cpi"`) {
		t.Fatalf("/v1/models status %d body %s", rec.Code, rec.Body)
	}

	body := `{"model":"cpi","row":[0,0.005,0.001,0.0002]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"predictions"`) {
		t.Fatalf("/v1/predict status %d body %s", rec.Code, rec.Body)
	}
}

func TestNewServerFlagErrors(t *testing.T) {
	var logBuf bytes.Buffer
	if _, _, _, err := newServer(nil, &logBuf); err == nil {
		t.Error("no -model and no -demo was accepted")
	}
	if _, _, _, err := newServer([]string{"-model", "missing-equals"}, &logBuf); err == nil {
		t.Error("malformed -model spec was accepted")
	}
	if _, _, _, err := newServer([]string{"-model", "cpi=/no/such/file.json"}, &logBuf); err == nil {
		t.Error("unreadable model path was accepted")
	}
}

// TestNewServerPprofFlag checks the optional debug listener: -pprof
// assembles a second server on its own address whose mux answers the
// pprof index (mutex and block profiles included) while the service
// handler stays pprof-free.
func TestNewServerPprofFlag(t *testing.T) {
	treePath := writeTreeFile(t)
	var logBuf bytes.Buffer
	srv, pprofSrv, _, err := newServer([]string{
		"-model", "cpi=" + treePath,
		"-addr", "127.0.0.1:0",
		"-pprof", "127.0.0.1:0",
	}, &logBuf)
	if err != nil {
		t.Fatalf("newServer: %v\n%s", err, logBuf.String())
	}
	if pprofSrv == nil {
		t.Fatal("-pprof did not build a debug server")
	}
	rec := httptest.NewRecorder()
	pprofSrv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "mutex") {
		t.Fatalf("pprof index status %d body %.200s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code == http.StatusOK {
		t.Fatal("service handler answers /debug/pprof/ — profiling leaked onto the public mux")
	}
}

func TestNewServerDemoMode(t *testing.T) {
	var logBuf bytes.Buffer
	srv, _, nmodels, err := newServer([]string{"-demo", "-demo-scale", "0.02", "-addr", "127.0.0.1:0"}, &logBuf)
	if err != nil {
		t.Fatalf("newServer -demo: %v\n%s", err, logBuf.String())
	}
	if nmodels != 1 {
		t.Fatalf("registered %d models, want 1", nmodels)
	}
	rec := httptest.NewRecorder()
	srv.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"demo"`) {
		t.Fatalf("/v1/models status %d body %s", rec.Code, rec.Body)
	}
	if !strings.Contains(logBuf.String(), "trained demo@v1") {
		t.Errorf("log missing demo training line: %s", logBuf.String())
	}
}
