package main

// Smoke tests for the serve CLI's assembly path: newServer parses the
// command line, loads the model files into the registry, and returns a
// fully wired handler — all without touching the network, except the
// -timeout test, which needs a real connection to stall.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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

// TestTimeoutClosesStalledConnection: -timeout is the connection's read
// deadline on every route. A client that declares a body, sends half of
// it and stalls must lose the connection within 1 s of a 200 ms
// deadline, and the handler blocked reading that body must have
// returned — on /v1/predict and on the streaming /v1/stream alike.
func TestTimeoutClosesStalledConnection(t *testing.T) {
	var logBuf bytes.Buffer
	srv, _, _, err := newServer([]string{"-demo", "-demo-scale", "0.02", "-addr", "127.0.0.1:0", "-timeout", "200ms"}, &logBuf)
	if err != nil {
		t.Fatalf("newServer: %v\n%s", err, logBuf.String())
	}
	returned := make(chan string, 1)
	h := srv.Handler
	srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { returned <- r.URL.Path }()
		h.ServeHTTP(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})

	for _, tc := range []struct{ target, body string }{
		{"/v1/predict", `{"model":"demo","events":[{"L2M":0.004,"L1IM":0.002}]}`},
		{"/v1/stream?model=demo", `{"events":{"L2M":0.004,"L1IM":0.002},"cpi":1.4}` + "\n"},
	} {
		path, _, _ := strings.Cut(tc.target, "?")
		t.Run(strings.TrimPrefix(path, "/v1/"), func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			start := time.Now()
			if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				tc.target, len(tc.body), tc.body[:len(tc.body)/2]); err != nil {
				t.Fatal(err)
			}
			if err := conn.SetReadDeadline(start.Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			// Whatever the server answers, it must then close: io.Copy
			// ends at EOF (nil) or on a reset, never on our deadline.
			_, err = io.Copy(io.Discard, conn)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection still open %v after sending half the body", time.Since(start).Round(time.Millisecond))
			}
			select {
			case got := <-returned:
				if got != path {
					t.Fatalf("handler for %s returned, want %s", got, path)
				}
			case <-time.After(time.Until(start.Add(time.Second))):
				t.Fatal("connection closed but the handler has not returned")
			}
		})
	}
}

// TestTimeoutZeroDisablesDeadlines: -timeout 0 leaves the server
// without read or write deadlines.
func TestTimeoutZeroDisablesDeadlines(t *testing.T) {
	treePath := writeTreeFile(t)
	var logBuf bytes.Buffer
	srv, _, _, err := newServer([]string{"-model", "cpi=" + treePath, "-addr", "127.0.0.1:0", "-timeout", "0"}, &logBuf)
	if err != nil {
		t.Fatalf("newServer: %v\n%s", err, logBuf.String())
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("-timeout 0: ReadTimeout %v, WriteTimeout %v, want 0 and 0", srv.ReadTimeout, srv.WriteTimeout)
	}
}
