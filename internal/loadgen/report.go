package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// EndpointReport is one traffic kind's replay outcome.
type EndpointReport struct {
	// Route is the server-side metrics key ("/v1/predict", ...).
	Route string `json:"route"`
	// Offered is the synthesized request count; Sent the requests that
	// actually went on the wire; Responses those that got an HTTP
	// answer (OK + Errors).
	Offered   int `json:"offered"`
	Sent      int `json:"sent"`
	Responses int `json:"responses"`
	OK        int `json:"ok"`
	// Errors counts HTTP >= 400 answers; TransportErrors counts sends
	// with no usable answer (dial/timeout/read failures).
	Errors          int `json:"errors"`
	TransportErrors int `json:"transport_errors"`
	// DroppedLate are requests abandoned because their scheduled time
	// had slipped past MaxLateness before a worker was free;
	// RejectedQueue are requests the full dispatch queue refused. Both
	// are offered load the server failed to absorb.
	DroppedLate   int `json:"dropped_late"`
	RejectedQueue int `json:"rejected_queue"`
	// Rows is the total instances served across OK responses.
	Rows int `json:"rows"`
	// ErrorsByCode histograms failures by API error code (plus
	// "transport" and "http_<status>" fallbacks).
	ErrorsByCode map[string]int `json:"errors_by_code,omitempty"`
	// ErrorBudget is the error fraction of offered load: everything
	// that was not an OK response, over Offered.
	ErrorBudget float64 `json:"error_budget"`
	// OfferedRPS is the synthesized rate; AchievedRPS the OK-response
	// completion rate over the wall clock.
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	// Latency measures from the scheduled arrival (coordinated-omission
	// corrected: queueing behind a slow server counts against it);
	// Service from the actual send.
	Latency LatencyMs `json:"latency"`
	Service LatencyMs `json:"service"`
}

// Report is the JSON document cmd/loadgen emits.
type Report struct {
	Target  string      `json:"target"`
	Config  TraceConfig `json:"config"`
	Workers int         `json:"workers"`
	// StartedAt is wall-clock RFC3339; WallSeconds the replay span
	// (dispatch start to last response).
	StartedAt   string  `json:"started_at"`
	WallSeconds float64 `json:"wall_seconds"`
	// Endpoints is keyed by traffic kind (predict, batch, classify,
	// stream); Totals aggregates them.
	Endpoints map[string]*EndpointReport `json:"endpoints"`
	Totals    EndpointReport             `json:"totals"`
	// Validation is the client-vs-server counter cross-check, present
	// when Validate ran.
	Validation *Validation `json:"validation,omitempty"`
}

func buildReport(tr *Trace, cfg *RunConfig, stats map[string]*endpointStats, wall time.Duration) *Report {
	rep := &Report{
		Target:      cfg.BaseURL,
		Config:      tr.Config,
		Workers:     cfg.Workers,
		StartedAt:   time.Now().Add(-wall).UTC().Format(time.RFC3339),
		WallSeconds: wall.Seconds(),
		Endpoints:   map[string]*EndpointReport{},
	}
	offered := tr.Config.Duration.Seconds()
	for kind, st := range stats {
		st.mu.Lock()
		ep := &EndpointReport{
			Route:           st.route,
			Offered:         st.offered,
			Sent:            st.sent,
			Responses:       st.ok + st.httpErrors,
			OK:              st.ok,
			Errors:          st.httpErrors,
			TransportErrors: st.transportErrs,
			DroppedLate:     st.droppedLate,
			RejectedQueue:   st.rejectedQueue,
			Rows:            st.rows,
			ErrorsByCode:    st.byCode,
			Latency:         st.latency.snapshot(),
			Service:         st.service.snapshot(),
		}
		st.mu.Unlock()
		if ep.Offered > 0 {
			ep.ErrorBudget = float64(ep.Offered-ep.OK) / float64(ep.Offered)
		}
		ep.OfferedRPS = float64(ep.Offered) / offered
		if wall > 0 {
			ep.AchievedRPS = float64(ep.OK) / wall.Seconds()
		}
		rep.Endpoints[kind] = ep

		rep.Totals.Offered += ep.Offered
		rep.Totals.Sent += ep.Sent
		rep.Totals.Responses += ep.Responses
		rep.Totals.OK += ep.OK
		rep.Totals.Errors += ep.Errors
		rep.Totals.TransportErrors += ep.TransportErrors
		rep.Totals.DroppedLate += ep.DroppedLate
		rep.Totals.RejectedQueue += ep.RejectedQueue
		rep.Totals.Rows += ep.Rows
	}
	rep.Totals.Route = "*"
	if rep.Totals.Offered > 0 {
		rep.Totals.ErrorBudget = float64(rep.Totals.Offered-rep.Totals.OK) / float64(rep.Totals.Offered)
	}
	rep.Totals.OfferedRPS = float64(rep.Totals.Offered) / offered
	if wall > 0 {
		rep.Totals.AchievedRPS = float64(rep.Totals.OK) / wall.Seconds()
	}
	return rep
}

// ServerMetrics is the slice of /v1/metrics.json the harness consumes.
type ServerMetrics struct {
	Endpoints map[string]struct {
		Requests uint64 `json:"requests"`
		Errors   uint64 `json:"errors"`
	} `json:"endpoints"`
}

// FetchMetrics scrapes the server's machine-readable counters.
func FetchMetrics(client *http.Client, baseURL string) (*ServerMetrics, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/v1/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("loadgen: scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: metrics scrape returned HTTP %d", resp.StatusCode)
	}
	var m ServerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("loadgen: decoding metrics: %w", err)
	}
	return &m, nil
}

// ModelInfo is the slice of GET /v1/models/{ref} the harness consumes
// to shape payloads per model.
type ModelInfo struct {
	Name    string   `json:"name"`
	Version string   `json:"version"`
	Attrs   []string `json:"attrs"`
	Target  string   `json:"target"`
}

// FetchModelInfo resolves a model reference to its serving detail.
func FetchModelInfo(client *http.Client, baseURL, ref string) (*ModelInfo, error) {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(baseURL + "/v1/models/" + ref)
	if err != nil {
		return nil, fmt.Errorf("loadgen: fetching model detail: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: model detail for %q returned HTTP %d", ref, resp.StatusCode)
	}
	var info ModelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("loadgen: decoding model detail: %w", err)
	}
	return &info, nil
}

// ValidationCheck is one client-vs-server counter comparison.
type ValidationCheck struct {
	Route   string `json:"route"`
	Counter string `json:"counter"` // "requests" or "errors"
	Client  uint64 `json:"client"`
	Server  uint64 `json:"server"`
	Match   bool   `json:"match"`
}

// Validation is the counter cross-check: the client's view of how many
// requests and errors each route saw against the delta of the server's
// own counters across the run (Röhl et al.: validate the measurement
// infrastructure, not just the system under it).
type Validation struct {
	// Consistent is true when every check matched.
	Consistent bool `json:"consistent"`
	// Exact is false when transport errors make an exact comparison
	// impossible (a failed send may or may not have reached the
	// server); checks are then skipped rather than reported as
	// mismatches.
	Exact  bool              `json:"exact"`
	Checks []ValidationCheck `json:"checks,omitempty"`
	Note   string            `json:"note,omitempty"`
}

// Validate fills rep.Validation by comparing per-route client counts
// against the before/after server metric snapshots.
func Validate(rep *Report, before, after *ServerMetrics) {
	v := &Validation{Consistent: true, Exact: rep.Totals.TransportErrors == 0}
	if !v.Exact {
		v.Note = fmt.Sprintf("%d transport errors: requests without a response may or may not have reached the server; exact counter comparison skipped",
			rep.Totals.TransportErrors)
		rep.Validation = v
		return
	}

	// Aggregate client counts per server route (predict and batch both
	// land on /v1/predict).
	type agg struct{ responses, errors uint64 }
	client := map[string]*agg{}
	for _, ep := range rep.Endpoints {
		a, ok := client[ep.Route]
		if !ok {
			a = &agg{}
			client[ep.Route] = a
		}
		a.responses += uint64(ep.Responses)
		a.errors += uint64(ep.Errors)
	}
	routes := make([]string, 0, len(client))
	for r := range client {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, route := range routes {
		a := client[route]
		var serverReq, serverErr uint64
		if b, ok := before.Endpoints[route]; ok {
			if aft, ok := after.Endpoints[route]; ok {
				serverReq = aft.Requests - b.Requests
				serverErr = aft.Errors - b.Errors
			}
		}
		reqCheck := ValidationCheck{Route: route, Counter: "requests",
			Client: a.responses, Server: serverReq, Match: a.responses == serverReq}
		errCheck := ValidationCheck{Route: route, Counter: "errors",
			Client: a.errors, Server: serverErr, Match: a.errors == serverErr}
		v.Checks = append(v.Checks, reqCheck, errCheck)
		if !reqCheck.Match || !errCheck.Match {
			v.Consistent = false
		}
	}
	rep.Validation = v
}
