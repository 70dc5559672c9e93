package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Observability counters for the prediction service, expvar-style: plain
// in-process counters and fixed-bucket latency histograms, rendered as
// one JSON document at GET /v1/metrics.json (with cumulative histogram
// buckets, so external load generators can cross-validate their own
// counts) and as a flat text exposition at GET /metrics. No external
// metrics dependency; the histograms give the latency quantiles a
// scrape would want (p50/p90/p99) at a few hundred bytes of state per
// endpoint.

// latencyBucketsMs are the histogram upper bounds in milliseconds,
// log-spaced from 10µs to 10s. Samples above the last bound land in a
// +Inf overflow bucket.
var latencyBucketsMs = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// histogram is a fixed-bucket latency histogram built from atomics
// only — no lock is ever taken on the observe path, so recording a
// latency cannot contend with request handling. State is striped:
// observations land round-robin on one of histStripes independently
// allocated stripes (so the hot counters do not all share cache lines)
// and the stripes are merged at snapshot time. A snapshot taken while
// observations are in flight may see an observation's bucket increment
// before its total — a transient off-by-a-few skew that vanishes once
// writers quiesce, which is when the exact cross-validation (loadgen)
// reads it.
type histogram struct {
	next    atomic.Uint32
	stripes []*histStripe
}

// histStripes is the stripe count; a power of two so the round-robin
// pick is a mask, sized to spread writers without bloating snapshots.
const histStripes = 8

type histStripe struct {
	counts []atomic.Uint64 // len(latencyBucketsMs)+1, last is overflow
	total  atomic.Uint64
	sumNs  atomic.Int64
	maxNs  atomic.Int64
}

func newHistogram() *histogram {
	h := &histogram{stripes: make([]*histStripe, histStripes)}
	for i := range h.stripes {
		h.stripes[i] = &histStripe{counts: make([]atomic.Uint64, len(latencyBucketsMs)+1)}
	}
	return h
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBucketsMs, ms)
	st := h.stripes[h.next.Add(1)&(histStripes-1)]
	st.counts[i].Add(1)
	st.total.Add(1)
	st.sumNs.Add(int64(d))
	for {
		cur := st.maxNs.Load()
		if int64(d) <= cur || st.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// snapshot merges the stripes into one latency summary: count, mean,
// max, p50/p90/p99 and the cumulative buckets.
func (h *histogram) snapshot() latencySnapshot {
	counts := make([]uint64, len(latencyBucketsMs)+1)
	var total uint64
	var sumNs, maxNs int64
	for _, st := range h.stripes {
		for i := range counts {
			counts[i] += st.counts[i].Load()
		}
		total += st.total.Load()
		sumNs += st.sumNs.Load()
		if m := st.maxNs.Load(); m > maxNs {
			maxNs = m
		}
	}
	maxMs := float64(maxNs) / float64(time.Millisecond)
	s := latencySnapshot{MaxMs: maxMs, Count: total}
	if total == 0 {
		return s
	}
	s.MeanMs = float64(sumNs) / float64(time.Millisecond) / float64(total)
	// quantile estimates the q-quantile (0 < q <= 1) as the upper bound
	// of the bucket holding the q-th observation — an overestimate by at
	// most one bucket width, which is what fixed buckets buy.
	quantile := func(q float64) float64 {
		rank := uint64(q * float64(total))
		if rank < 1 {
			rank = 1
		}
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= rank {
				if i < len(latencyBucketsMs) {
					return latencyBucketsMs[i]
				}
				return maxMs
			}
		}
		return maxMs
	}
	s.P50Ms = quantile(0.50)
	s.P90Ms = quantile(0.90)
	s.P99Ms = quantile(0.99)
	// Cumulative finite buckets; observations above the last bound are
	// the difference between the last bucket's count and Count.
	s.Buckets = make([]latencyBucket, len(latencyBucketsMs))
	var cum uint64
	for i := range latencyBucketsMs {
		cum += counts[i]
		s.Buckets[i] = latencyBucket{LeMs: latencyBucketsMs[i], Count: cum}
	}
	return s
}

// latencyBucket is one cumulative histogram bucket: Count observations
// were at or under LeMs milliseconds.
type latencyBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

type latencySnapshot struct {
	Count   uint64          `json:"count"`
	MeanMs  float64         `json:"mean_ms"`
	P50Ms   float64         `json:"p50_ms"`
	P90Ms   float64         `json:"p90_ms"`
	P99Ms   float64         `json:"p99_ms"`
	MaxMs   float64         `json:"max_ms"`
	Buckets []latencyBucket `json:"buckets,omitempty"`
}

// endpointMetrics tracks one route.
type endpointMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	inFlight atomic.Int64
	latency  *histogram
}

func newEndpointMetrics() *endpointMetrics {
	return &endpointMetrics{latency: newHistogram()}
}

type endpointSnapshot struct {
	Requests  uint64          `json:"requests"`
	Errors    uint64          `json:"errors"`
	InFlight  int64           `json:"in_flight"`
	LatencyMs latencySnapshot `json:"latency_ms"`
}

// metricsRegistry holds every endpoint's counters plus service-level
// gauges. Endpoints are registered up front, one per entry of the route
// table, so reads are lock-free map lookups.
type metricsRegistry struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	cache     *PredictionCache // nil when caching is disabled
	models    func() int
	machines  func() map[string]int
	streams   *streamSessions
}

func newMetricsRegistry(cache *PredictionCache, models func() int, machines func() map[string]int, streams *streamSessions) *metricsRegistry {
	m := &metricsRegistry{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics, len(routes)),
		cache:     cache,
		models:    models,
		machines:  machines,
		streams:   streams,
	}
	for _, rt := range routes {
		m.endpoints[rt.path] = newEndpointMetrics()
	}
	return m
}

type cacheSnapshot struct {
	Enabled bool    `json:"enabled"`
	Size    int     `json:"size"`
	Cap     int     `json:"cap"`
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

type metricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Models        int     `json:"models"`
	// Machines counts the registered models per machine provenance tag
	// (empty tag = models with no recorded machine); omitted while the
	// registry is empty.
	Machines  map[string]int              `json:"machines,omitempty"`
	Endpoints map[string]endpointSnapshot `json:"endpoints"`
	Cache     cacheSnapshot               `json:"cache"`
	Streams   streamsSnapshot             `json:"streams"`
}

func (m *metricsRegistry) snapshot() metricsSnapshot {
	s := metricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Models:        m.models(),
		Endpoints:     make(map[string]endpointSnapshot, len(m.endpoints)),
	}
	if by := m.machines(); len(by) > 0 {
		s.Machines = by
	}
	for route, em := range m.endpoints {
		s.Endpoints[route] = endpointSnapshot{
			Requests:  em.requests.Load(),
			Errors:    em.errors.Load(),
			InFlight:  em.inFlight.Load(),
			LatencyMs: em.latency.snapshot(),
		}
	}
	if m.cache != nil {
		hits, misses, size := m.cache.Stats()
		s.Cache = cacheSnapshot{Enabled: true, Size: size, Cap: m.cache.Cap(), Hits: hits, Misses: misses}
		if total := hits + misses; total > 0 {
			s.Cache.HitRate = float64(hits) / float64(total)
		}
	}
	s.Streams = m.streams.snapshot()
	return s
}

// renderText flattens the snapshot into a prometheus-flavoured text
// exposition: one `name{labels} value` line per counter, routes sorted
// so the output is deterministic. The structured form with histogram
// buckets lives at /v1/metrics.json; this rendering keeps only the
// quantile summaries per endpoint.
func (s metricsSnapshot) renderText() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "serve_uptime_seconds %g\n", s.UptimeSeconds)
	fmt.Fprintf(&b, "serve_models %d\n", s.Models)
	machines := make([]string, 0, len(s.Machines))
	for mn := range s.Machines {
		machines = append(machines, mn)
	}
	sort.Strings(machines)
	for _, mn := range machines {
		fmt.Fprintf(&b, "serve_models_by_machine{machine=%q} %d\n", mn, s.Machines[mn])
	}
	routes := make([]string, 0, len(s.Endpoints))
	for r := range s.Endpoints {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		ep := s.Endpoints[r]
		fmt.Fprintf(&b, "serve_requests_total{route=%q} %d\n", r, ep.Requests)
		fmt.Fprintf(&b, "serve_errors_total{route=%q} %d\n", r, ep.Errors)
		fmt.Fprintf(&b, "serve_in_flight{route=%q} %d\n", r, ep.InFlight)
		l := ep.LatencyMs
		fmt.Fprintf(&b, "serve_latency_ms{route=%q,stat=\"mean\"} %g\n", r, l.MeanMs)
		fmt.Fprintf(&b, "serve_latency_ms{route=%q,stat=\"p50\"} %g\n", r, l.P50Ms)
		fmt.Fprintf(&b, "serve_latency_ms{route=%q,stat=\"p90\"} %g\n", r, l.P90Ms)
		fmt.Fprintf(&b, "serve_latency_ms{route=%q,stat=\"p99\"} %g\n", r, l.P99Ms)
		fmt.Fprintf(&b, "serve_latency_ms{route=%q,stat=\"max\"} %g\n", r, l.MaxMs)
	}
	fmt.Fprintf(&b, "serve_cache_enabled %d\n", boolToInt(s.Cache.Enabled))
	fmt.Fprintf(&b, "serve_cache_size %d\n", s.Cache.Size)
	fmt.Fprintf(&b, "serve_cache_cap %d\n", s.Cache.Cap)
	fmt.Fprintf(&b, "serve_cache_hits_total %d\n", s.Cache.Hits)
	fmt.Fprintf(&b, "serve_cache_misses_total %d\n", s.Cache.Misses)
	fmt.Fprintf(&b, "serve_cache_hit_rate %g\n", s.Cache.HitRate)
	fmt.Fprintf(&b, "serve_stream_sessions %d\n", s.Streams.Sessions)
	fmt.Fprintf(&b, "serve_stream_accepted_total %d\n", s.Streams.Accepted)
	fmt.Fprintf(&b, "serve_stream_scored_total %d\n", s.Streams.Scored)
	fmt.Fprintf(&b, "serve_stream_invalid_total %d\n", s.Streams.Invalid)
	fmt.Fprintf(&b, "serve_stream_windows_total %d\n", s.Streams.Windows)
	fmt.Fprintf(&b, "serve_stream_phase_boundaries_total %d\n", s.Streams.PhaseBoundaries)
	fmt.Fprintf(&b, "serve_stream_drift_alarms_total %d\n", s.Streams.DriftAlarms)
	fmt.Fprintf(&b, "serve_stream_refute_sessions{verdict=\"consistent\"} %d\n", s.Streams.RefuteConsistent)
	fmt.Fprintf(&b, "serve_stream_refute_sessions{verdict=\"suspect\"} %d\n", s.Streams.RefuteSuspect)
	fmt.Fprintf(&b, "serve_stream_refute_sessions{verdict=\"refuted\"} %d\n", s.Streams.RefuteRefuted)
	fmt.Fprintf(&b, "serve_stream_refute_violations_total %d\n", s.Streams.RefuteViolations)
	// Per-relation violation counters, relation names sorted so the
	// exposition stays deterministic.
	relations := make([]string, 0, len(s.Streams.RelationViolations))
	for rel := range s.Streams.RelationViolations {
		relations = append(relations, rel)
	}
	sort.Strings(relations)
	for _, rel := range relations {
		fmt.Fprintf(&b, "serve_stream_refute_relation_violations_total{relation=%q} %d\n",
			rel, s.Streams.RelationViolations[rel])
	}
	fmt.Fprintf(&b, "serve_stream_session_hits_total %d\n", s.Streams.Hits)
	fmt.Fprintf(&b, "serve_stream_session_misses_total %d\n", s.Streams.Misses)
	fmt.Fprintf(&b, "serve_stream_session_evictions_total %d\n", s.Streams.Evictions)
	// Per-shard counters of the session table, in shard order: the
	// exposition stays deterministic because the stripe count and the
	// key→shard hash are both fixed.
	for i, sh := range s.Streams.Shards {
		fmt.Fprintf(&b, "serve_stream_shard_sessions{shard=\"%d\"} %d\n", i, sh.Size)
		fmt.Fprintf(&b, "serve_stream_shard_hits_total{shard=\"%d\"} %d\n", i, sh.Hits)
		fmt.Fprintf(&b, "serve_stream_shard_misses_total{shard=\"%d\"} %d\n", i, sh.Misses)
		fmt.Fprintf(&b, "serve_stream_shard_evictions_total{shard=\"%d\"} %d\n", i, sh.Evictions)
	}
	return b.Bytes()
}

func boolToInt(v bool) int {
	if v {
		return 1
	}
	return 0
}
