package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// RunConfig tunes trace replay.
type RunConfig struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers bounds in-flight requests (the open-loop pool size).
	Workers int
	// QueueDepth bounds the dispatch backlog; a full queue rejects the
	// request instead of stalling the trace clock (the clock never
	// waits for the server — that is the open-loop contract).
	QueueDepth int
	// MaxLateness drops a queued request whose scheduled time has
	// slipped by more than this before a worker picked it up: once the
	// backlog is that old, later sends only measure the queue.
	MaxLateness time.Duration
	// ClientTimeout bounds each request on the client side, from dial
	// to the last response byte (http.Client.Timeout).
	ClientTimeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one.
	Client *http.Client
}

// DefaultRunConfig returns replay defaults sized for a local target.
func DefaultRunConfig(baseURL string) RunConfig {
	return RunConfig{
		BaseURL:       baseURL,
		Workers:       32,
		QueueDepth:    0, // Workers * 8
		MaxLateness:   2 * time.Second,
		ClientTimeout: 10 * time.Second,
	}
}

func (c *RunConfig) validate() error {
	if c.BaseURL == "" {
		return fmt.Errorf("loadgen: missing base URL")
	}
	if c.Workers <= 0 {
		c.Workers = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.Workers * 8
	}
	if c.MaxLateness <= 0 {
		c.MaxLateness = 2 * time.Second
	}
	if c.ClientTimeout <= 0 {
		c.ClientTimeout = 10 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{
			Timeout: c.ClientTimeout,
			Transport: &http.Transport{
				MaxIdleConns:        c.Workers * 2,
				MaxIdleConnsPerHost: c.Workers * 2,
			},
		}
	}
	return nil
}

// endpointStats accumulates one kind's counters during replay.
type endpointStats struct {
	mu            sync.Mutex
	route         string
	offered       int
	sent          int
	ok            int
	httpErrors    int
	transportErrs int
	droppedLate   int
	rejectedQueue int
	rows          int
	byCode        map[string]int
	latency       *hist // from scheduled arrival (coordinated-omission corrected)
	service       *hist // from actual send
}

func newEndpointStats(route string) *endpointStats {
	return &endpointStats{route: route, byCode: map[string]int{}, latency: newHist(), service: newHist()}
}

// scheduled pairs a trace request with its absolute fire time.
type scheduled struct {
	req   *Request
	fires time.Time
}

// Run replays the trace open-loop against cfg.BaseURL and returns the
// report. The dispatcher walks arrivals on the trace clock; workers
// send and record. ctx cancellation stops dispatch (already-queued
// requests still drain).
func Run(ctx context.Context, tr *Trace, cfg RunConfig) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(tr.Requests) == 0 {
		return nil, fmt.Errorf("loadgen: empty trace")
	}

	stats := map[string]*endpointStats{}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		st, ok := stats[r.Kind]
		if !ok {
			st = newEndpointStats(r.Route)
			stats[r.Kind] = st
		}
		st.offered++
	}

	queue := make(chan scheduled, cfg.QueueDepth)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range queue {
				runOne(cfg.Client, cfg.BaseURL, item, stats[item.req.Kind], cfg.MaxLateness)
			}
		}()
	}

	start := time.Now()
dispatch:
	for i := range tr.Requests {
		r := &tr.Requests[i]
		fires := start.Add(r.At)
		if wait := time.Until(fires); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break dispatch
			}
		} else if ctx.Err() != nil {
			break dispatch
		}
		select {
		case queue <- scheduled{req: r, fires: fires}:
		default:
			// Queue full: the server is more than QueueDepth requests
			// behind. Rejecting keeps the trace clock honest instead of
			// back-pressuring the generator (closed-loop would hide the
			// overload); the rejection is load the server failed to
			// absorb and lands in the error budget.
			st := stats[r.Kind]
			st.mu.Lock()
			st.rejectedQueue++
			st.mu.Unlock()
		}
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start)

	return buildReport(tr, &cfg, stats, wall), nil
}

// runOne sends one scheduled request and records its outcome.
func runOne(client *http.Client, baseURL string, item scheduled, st *endpointStats, maxLate time.Duration) {
	if late := time.Since(item.fires); late > maxLate {
		st.mu.Lock()
		st.droppedLate++
		st.mu.Unlock()
		return
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+item.req.Path, bytes.NewReader(item.req.Body))
	if err != nil {
		st.mu.Lock()
		st.transportErrs++
		st.byCode["transport"]++
		st.mu.Unlock()
		return
	}
	req.Header.Set("Content-Type", item.req.ContentType)
	sendStart := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		st.mu.Lock()
		st.sent++
		st.transportErrs++
		st.byCode["transport"]++
		st.mu.Unlock()
		return
	}
	code, readErr := classifyResponse(resp)
	done := time.Now()

	st.mu.Lock()
	st.sent++
	st.latency.observeMs(float64(done.Sub(item.fires)) / float64(time.Millisecond))
	st.service.observeMs(float64(done.Sub(sendStart)) / float64(time.Millisecond))
	switch {
	case readErr != nil:
		st.transportErrs++
		st.byCode["transport"]++
	case resp.StatusCode >= 400:
		st.httpErrors++
		st.byCode[code]++
	default:
		st.ok++
		st.rows += item.req.Rows
	}
	st.mu.Unlock()
}

// classifyResponse drains the body and, for error statuses, extracts
// the API error envelope's code; responses without a parseable
// envelope classify as "http_<status>".
func classifyResponse(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	if resp.StatusCode < 400 {
		_, err := io.Copy(io.Discard, resp.Body)
		return "", err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return "", err
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		return env.Error.Code, nil
	}
	return fmt.Sprintf("http_%d", resp.StatusCode), nil
}
