// Package loadgen synthesizes and replays request traces against the
// serve API: the load and soak harness behind `make loadgen-smoke` and
// cmd/loadgen (the defined benchmark is perfbench, which drives its own
// closed loop). It is modeled on serverless trace
// synthesizers (vhive/invitro): a seeded generator turns a rate shape
// (steady, ramp, RPS sweep, burst) and a traffic mix into a fully
// materialized trace — every request's arrival offset, endpoint and
// marshalled body — before the first byte goes on the wire. Given the
// same seed and config the trace is byte-identical, so two runs against
// two builds measure the servers, not the generator.
//
// Replay is open-loop: requests fire at their synthesized times from a
// bounded worker pool, never waiting for earlier responses, and latency
// is measured from the *scheduled* arrival rather than the actual send
// — the standard correction for coordinated omission, where a stalled
// server would otherwise slow the generator down and hide its own tail
// latency. Results land in a JSON Report (per-endpoint p50/p95/p99/max,
// achieved vs offered throughput, error budget by API error code) and
// are cross-validated against the server's own /v1/metrics.json
// counters.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/xrand"
)

// Mode names a rate shape.
type Mode string

const (
	// ModeSteady offers a constant rate for the whole duration.
	ModeSteady Mode = "steady"
	// ModeRamp interpolates the rate linearly from RPS to EndRPS.
	ModeRamp Mode = "ramp"
	// ModeSweep holds Steps equal-length plateaus stepping from RPS to
	// EndRPS — the classic capacity-finding sweep.
	ModeSweep Mode = "sweep"
	// ModeBurst offers RPS with periodic bursts of RPS*BurstFactor.
	ModeBurst Mode = "burst"
)

// ParseMode validates a mode name.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeSteady, ModeRamp, ModeSweep, ModeBurst:
		return Mode(s), nil
	}
	return "", fmt.Errorf("loadgen: unknown mode %q (want steady, ramp, sweep or burst)", s)
}

// Request kinds. Predict and Batch both hit /v1/predict (single-row
// named events vs a full-width row batch through the compiled kernel);
// Classify and Stream hit their own routes.
const (
	KindPredict  = "predict"
	KindBatch    = "batch"
	KindClassify = "classify"
	KindStream   = "stream"
)

// Mix weighs the traffic kinds; a kind's share of requests is its
// weight over the sum. Zero-weight kinds are absent from the trace.
type Mix struct {
	Predict  int `json:"predict"`
	Batch    int `json:"batch"`
	Classify int `json:"classify"`
	Stream   int `json:"stream"`
}

// DefaultMix is mostly single predictions with some batches, classify
// lookups and stream ingestion — a serving-heavy profile.
func DefaultMix() Mix { return Mix{Predict: 6, Batch: 2, Classify: 1, Stream: 1} }

// ParseMix parses "predict=6,batch=2,classify=1,stream=1"; omitted
// kinds get weight 0.
func ParseMix(s string) (Mix, error) {
	var m Mix
	if strings.TrimSpace(s) == "" {
		return m, fmt.Errorf("loadgen: empty mix")
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("loadgen: mix part %q: want kind=weight", part)
		}
		var w int
		if _, err := fmt.Sscanf(v, "%d", &w); err != nil || w < 0 {
			return m, fmt.Errorf("loadgen: mix weight %q for %q: want a non-negative integer", v, k)
		}
		switch k {
		case KindPredict:
			m.Predict = w
		case KindBatch:
			m.Batch = w
		case KindClassify:
			m.Classify = w
		case KindStream:
			m.Stream = w
		default:
			return m, fmt.Errorf("loadgen: unknown mix kind %q", k)
		}
	}
	if m.Predict+m.Batch+m.Classify+m.Stream == 0 {
		return m, fmt.Errorf("loadgen: mix has no positive weights")
	}
	return m, nil
}

// Payload profiles for stream samples.
const (
	// PayloadClean emits physically consistent counter rates.
	PayloadClean = "clean"
	// PayloadCorrupt negates one event value per stream sample — an
	// impossible reading (event rates cannot be negative) that the serve
	// side's counter-consistency layer must refute. Non-stream request
	// kinds are unaffected.
	PayloadCorrupt = "corrupt"
)

// ParsePayload validates a payload profile name ("" = clean).
func ParsePayload(s string) (string, error) {
	switch s {
	case "", PayloadClean:
		return PayloadClean, nil
	case PayloadCorrupt:
		return PayloadCorrupt, nil
	}
	return "", fmt.Errorf("loadgen: unknown payload profile %q (want clean or corrupt)", s)
}

// Schema is the part of a model's description the synthesizer needs to
// shape payloads: the full column list and which column is the target.
// cmd/loadgen fills it from GET /v1/models/{ref}.
type Schema struct {
	Attrs  []string `json:"attrs"`
	Target string   `json:"target"`
}

// events returns the non-target attribute names, in schema order.
func (s Schema) events() []string {
	out := make([]string, 0, len(s.Attrs)-1)
	for _, a := range s.Attrs {
		if a != s.Target {
			out = append(out, a)
		}
	}
	return out
}

// targetIndex returns the target column's position, or -1.
func (s Schema) targetIndex() int {
	for i, a := range s.Attrs {
		if a == s.Target {
			return i
		}
	}
	return -1
}

// TraceConfig parameterizes synthesis. The zero value is not runnable;
// call Validate (or start from DefaultTraceConfig) first.
type TraceConfig struct {
	// Seed drives every random draw; same seed + same config =
	// byte-identical trace.
	Seed int64 `json:"seed"`
	// Mode is the rate shape.
	Mode Mode `json:"mode"`
	// Duration is the offered-traffic window.
	Duration time.Duration `json:"duration_ns"`
	// RPS is the base request rate (steady rate, ramp/sweep start,
	// burst baseline).
	RPS float64 `json:"rps"`
	// EndRPS is the ramp/sweep final rate; ignored by steady and burst.
	EndRPS float64 `json:"end_rps,omitempty"`
	// Steps is the sweep plateau count (>= 1); ignored elsewhere.
	Steps int `json:"steps,omitempty"`
	// BurstFactor multiplies RPS inside burst windows (> 1).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// BurstPeriod is the time between burst starts; BurstLen how long
	// each burst lasts.
	BurstPeriod time.Duration `json:"burst_period_ns,omitempty"`
	BurstLen    time.Duration `json:"burst_len_ns,omitempty"`
	// Mix weighs the traffic kinds.
	Mix Mix `json:"mix"`
	// Sessions is the number of distinct synthetic clients. Each
	// session draws its own base event-rate profile, and stream
	// requests carry their session id (?session=sN), so each client
	// gets its own stream timeline on the server. Rows are drawn at
	// full precision and do not repeat, so a prediction cache sees no
	// reuse from them.
	Sessions int `json:"sessions"`
	// BatchSize is the row count of each batch predict request.
	BatchSize int `json:"batch_size"`
	// StreamBatch is the samples per stream ingestion request.
	StreamBatch int `json:"stream_batch"`
	// Payload is the stream-sample payload profile (PayloadClean or
	// PayloadCorrupt; "" = clean).
	Payload string `json:"payload,omitempty"`
	// Model is the registry reference the trace addresses.
	Model string `json:"model"`
	// Schema shapes payloads; from GET /v1/models/{ref}.
	Schema Schema `json:"schema"`
}

// DefaultTraceConfig returns a short steady-state mixed trace.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{
		Seed:        1,
		Mode:        ModeSteady,
		Duration:    10 * time.Second,
		RPS:         100,
		Steps:       5,
		BurstFactor: 4,
		BurstPeriod: 2 * time.Second,
		BurstLen:    250 * time.Millisecond,
		Mix:         DefaultMix(),
		Sessions:    16,
		BatchSize:   64,
		StreamBatch: 16,
	}
}

// Validate fills derivable defaults and rejects unrunnable configs.
func (c *TraceConfig) Validate() error {
	if _, err := ParseMode(string(c.Mode)); err != nil {
		return err
	}
	if c.Duration <= 0 {
		return fmt.Errorf("loadgen: non-positive duration %v", c.Duration)
	}
	if c.RPS <= 0 {
		return fmt.Errorf("loadgen: non-positive rps %v", c.RPS)
	}
	if c.EndRPS <= 0 {
		c.EndRPS = c.RPS
	}
	if c.Steps <= 0 {
		c.Steps = 1
	}
	if c.BurstFactor < 1 {
		c.BurstFactor = 1
	}
	if c.Mode == ModeBurst && (c.BurstPeriod <= 0 || c.BurstLen <= 0 || c.BurstLen > c.BurstPeriod) {
		return fmt.Errorf("loadgen: burst mode needs 0 < burst-len <= burst-period (got len %v, period %v)",
			c.BurstLen, c.BurstPeriod)
	}
	if c.Mix.Predict+c.Mix.Batch+c.Mix.Classify+c.Mix.Stream <= 0 {
		return fmt.Errorf("loadgen: mix has no positive weights")
	}
	if c.Sessions <= 0 {
		c.Sessions = 1
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.StreamBatch <= 0 {
		c.StreamBatch = 1
	}
	payload, err := ParsePayload(c.Payload)
	if err != nil {
		return err
	}
	c.Payload = payload
	if c.Model == "" {
		return fmt.Errorf("loadgen: missing model reference")
	}
	if len(c.Schema.Attrs) < 2 || c.Schema.targetIndex() < 0 {
		return fmt.Errorf("loadgen: schema needs the target plus at least one event column (got attrs %v, target %q)",
			c.Schema.Attrs, c.Schema.Target)
	}
	return nil
}

// rate returns the offered rate at offset t.
func (c *TraceConfig) rate(t time.Duration) float64 {
	frac := float64(t) / float64(c.Duration)
	switch c.Mode {
	case ModeRamp:
		return c.RPS + (c.EndRPS-c.RPS)*frac
	case ModeSweep:
		step := int(frac * float64(c.Steps))
		if step >= c.Steps {
			step = c.Steps - 1
		}
		if c.Steps == 1 {
			return c.RPS
		}
		return c.RPS + (c.EndRPS-c.RPS)*float64(step)/float64(c.Steps-1)
	case ModeBurst:
		if (t % c.BurstPeriod) < c.BurstLen {
			return c.RPS * c.BurstFactor
		}
		return c.RPS
	default:
		return c.RPS
	}
}

// peakRate bounds rate(t) from above, for the thinning sampler.
func (c *TraceConfig) peakRate() float64 {
	peak := c.RPS
	if c.EndRPS > peak && (c.Mode == ModeRamp || c.Mode == ModeSweep) {
		peak = c.EndRPS
	}
	if c.Mode == ModeBurst {
		peak = c.RPS * c.BurstFactor
	}
	return peak
}

// Request is one synthesized API call, fully materialized: arrival
// offset, wire-level target and body. Route is the server's metrics
// key for the path (predict and batch share "/v1/predict").
type Request struct {
	At          time.Duration `json:"at_ns"`
	Kind        string        `json:"kind"`
	Route       string        `json:"route"`
	Path        string        `json:"path"`
	ContentType string        `json:"content_type"`
	Body        []byte        `json:"body"`
	// Rows counts the instances (rows or samples) the request carries,
	// for offered-work accounting.
	Rows int `json:"rows"`
}

// Trace is a synthesized request sequence, sorted by arrival offset.
type Trace struct {
	Config   TraceConfig `json:"config"`
	Requests []Request   `json:"requests"`
}

// Synthesize materializes the trace for a config: a non-homogeneous
// Poisson arrival process (thinning against the mode's peak rate),
// each arrival assigned a kind by mix weight, a session, and a
// marshalled payload drawn from the session's profile. Every draw
// comes from one seeded generator, so the result is byte-identical
// across runs and machines.
func Synthesize(cfg TraceConfig) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	events := cfg.Schema.events()
	tgt := cfg.Schema.targetIndex()

	// Per-session base profiles: each session's event rates center on
	// its own draws, so each session's stream reads like one client.
	base := make([][]float64, cfg.Sessions)
	for i := range base {
		base[i] = make([]float64, len(events))
		for j := range base[i] {
			base[i][j] = 0.002 + 0.018*rng.Float64()
		}
	}

	// Mix lookup table: weights flattened into a slice for one Intn.
	kinds := make([]string, 0, cfg.Mix.Predict+cfg.Mix.Batch+cfg.Mix.Classify+cfg.Mix.Stream)
	for i := 0; i < cfg.Mix.Predict; i++ {
		kinds = append(kinds, KindPredict)
	}
	for i := 0; i < cfg.Mix.Batch; i++ {
		kinds = append(kinds, KindBatch)
	}
	for i := 0; i < cfg.Mix.Classify; i++ {
		kinds = append(kinds, KindClassify)
	}
	for i := 0; i < cfg.Mix.Stream; i++ {
		kinds = append(kinds, KindStream)
	}

	// sample perturbs the session's base rates for one instance.
	sample := func(sess int) []float64 {
		vals := make([]float64, len(events))
		for j, b := range base[sess] {
			vals[j] = b * (0.5 + rng.Float64())
		}
		return vals
	}
	eventMap := func(vals []float64) map[string]float64 {
		m := make(map[string]float64, len(vals))
		for j, n := range events {
			m[n] = vals[j]
		}
		return m
	}
	fullRow := func(vals []float64) []float64 {
		row := make([]float64, len(cfg.Schema.Attrs))
		k := 0
		for i := range row {
			if i == tgt {
				continue
			}
			row[i] = vals[k]
			k++
		}
		return row
	}

	peak := cfg.peakRate()
	tr := &Trace{Config: cfg}
	var t float64 // seconds
	horizon := cfg.Duration.Seconds()
	for {
		// Exponential inter-arrival at the peak rate, thinned down to
		// the momentary rate — the textbook non-homogeneous sampler.
		t += -math.Log(1-rng.Float64()) / peak
		if t >= horizon {
			break
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64() > cfg.rate(at)/peak {
			continue
		}
		kind := kinds[rng.Intn(len(kinds))]
		sess := rng.Intn(cfg.Sessions)
		req, err := buildRequest(&cfg, kind, sess, sample, eventMap, fullRow, rng)
		if err != nil {
			return nil, err
		}
		req.At = at
		tr.Requests = append(tr.Requests, req)
	}
	sort.SliceStable(tr.Requests, func(i, j int) bool { return tr.Requests[i].At < tr.Requests[j].At })
	return tr, nil
}

// buildRequest marshals one request body for a kind. Bodies go through
// encoding/json, which sorts map keys, so marshalling is deterministic.
func buildRequest(cfg *TraceConfig, kind string, sess int,
	sample func(int) []float64, eventMap func([]float64) map[string]float64,
	fullRow func([]float64) []float64, rng *xrand.Rand) (Request, error) {

	switch kind {
	case KindPredict:
		body, err := json.Marshal(map[string]any{
			"model":  cfg.Model,
			"events": []map[string]float64{eventMap(sample(sess))},
		})
		return Request{Kind: kind, Route: "/v1/predict", Path: "/v1/predict",
			ContentType: "application/json", Body: body, Rows: 1}, err
	case KindBatch:
		rows := make([][]float64, cfg.BatchSize)
		for i := range rows {
			rows[i] = fullRow(sample(sess))
		}
		body, err := json.Marshal(map[string]any{"model": cfg.Model, "rows": rows})
		return Request{Kind: kind, Route: "/v1/predict", Path: "/v1/predict",
			ContentType: "application/json", Body: body, Rows: cfg.BatchSize}, err
	case KindClassify:
		body, err := json.Marshal(map[string]any{
			"model": cfg.Model,
			"row":   fullRow(sample(sess)),
		})
		return Request{Kind: kind, Route: "/v1/classify", Path: "/v1/classify",
			ContentType: "application/json", Body: body, Rows: 1}, err
	case KindStream:
		var b strings.Builder
		for i := 0; i < cfg.StreamBatch; i++ {
			vals := sample(sess)
			if cfg.Payload == PayloadCorrupt {
				// One impossible (negative) event rate per sample: every
				// corrupted sample violates a non-negativity relation, so a
				// refutation-checking server must flag the session.
				vals[rng.Intn(len(vals))] *= -1
			}
			cpi := 0.5 + rng.Float64()
			line, err := json.Marshal(map[string]any{
				"events": eventMap(vals),
				"cpi":    cpi,
			})
			if err != nil {
				return Request{}, err
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		// Each synthetic session streams into its own server-side monitor
		// timeline (?session=sN), so a run with -sessions N exercises the
		// session table and its TTL bookkeeping instead of funnelling
		// every stream request into one session lock.
		return Request{Kind: kind, Route: "/v1/stream",
			Path:        fmt.Sprintf("/v1/stream?model=%s&session=s%d", cfg.Model, sess),
			ContentType: "application/x-ndjson", Body: []byte(b.String()),
			Rows: cfg.StreamBatch}, nil
	}
	return Request{}, fmt.Errorf("loadgen: unknown request kind %q", kind)
}
