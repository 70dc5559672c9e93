package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/refute"
	"repro/internal/shard"
	"repro/internal/stream"
)

// The /v1/stream endpoint is the service's online surface: clients POST
// NDJSON counter samples and the server runs them through a persistent
// stream.Processor, which scores each sample as it is ingested and
// advances the phase, drift and refutation monitors. Monitor state
// (phase tracker, Page–Hinkley accumulator, EWMA CPI, open refutation
// window) survives across requests, and refutation windows close on a
// fixed section count, so a producer can POST sections in whatever
// chunks its collection loop yields and get the same events — byte for
// byte — as any other chunking of the same timeline.
//
// Sessions are keyed by (model ref, session id): the ?session= query
// parameter names the timeline, so many producers can monitor through
// the same model concurrently without interleaving their sections.
// Omitting ?session= addresses the model's default session, which keeps
// the pre-session API shape working unchanged. The table behind the
// keys is lock-striped (internal/shard) with TTL eviction, so session
// lookup scales with cores and an abandoned producer's state does not
// pin memory forever.

// streamSession is one live monitor timeline. The processor is not safe
// for concurrent use, so each session serializes its ingestion; other
// sessions — of the same model or not — proceed independently. The
// session lock is held only across ingestion and scoring, never across
// the response write: a slow client drains its response after the lock
// is gone, so it cannot stall the session's next producer (and under
// the old one-session-per-model scheme it stalled every producer of
// the model).
type streamSession struct {
	mu    sync.Mutex
	model string // registry ref, e.g. "cpi@v1"
	id    string // session id, "" for the model's default session
	p     *stream.Processor
}

// streamSessions is the striped session table. The session key is the
// model ref and session id joined by a NUL (refs and ids are
// URL-derived and never contain one), so sessions of one model spread
// across shards like any other keys.
type streamSessions struct {
	tab *shard.Table[*streamSession]
}

func newStreamSessions(opts shard.Options) *streamSessions {
	return &streamSessions{tab: shard.New[*streamSession](opts)}
}

func sessionKey(ref, id string) string {
	return ref + "\x00" + id
}

// get returns the live session for (ref, id), creating it with mk on a
// miss or after TTL eviction.
func (ss *streamSessions) get(ref, id string, mk func() (*stream.Processor, error)) (*streamSession, error) {
	sess, _, err := ss.tab.GetOrCreate(sessionKey(ref, id), func() (*streamSession, error) {
		p, err := mk()
		if err != nil {
			return nil, err
		}
		return &streamSession{model: ref, id: id, p: p}, nil
	})
	return sess, err
}

// streamsSnapshot aggregates every session's monitor counters for the
// /metrics report, plus the session table's per-shard counters — the
// observable proof that traffic spreads across stripes and that TTL
// eviction is reclaiming abandoned sessions.
type streamsSnapshot struct {
	Sessions        int    `json:"sessions"`
	Accepted        uint64 `json:"accepted"`
	Scored          uint64 `json:"scored"`
	Invalid         uint64 `json:"invalid"`
	Windows         uint64 `json:"windows"`
	PhaseBoundaries uint64 `json:"phase_boundaries"`
	DriftAlarms     uint64 `json:"drift_alarms"`
	// Counter-consistency rollup across sessions: per-verdict session
	// counts, total relation violations, and per-relation violation
	// totals (only relations with at least one violation appear).
	RefuteConsistent   int               `json:"refute_consistent_sessions"`
	RefuteSuspect      int               `json:"refute_suspect_sessions"`
	RefuteRefuted      int               `json:"refute_refuted_sessions"`
	RefuteViolations   uint64            `json:"refute_violations"`
	RelationViolations map[string]uint64 `json:"refute_relation_violations,omitempty"`
	// Hits/Misses/Evictions are the session-table totals; Shards breaks
	// them down per stripe.
	Hits      uint64             `json:"hits"`
	Misses    uint64             `json:"misses"`
	Evictions uint64             `json:"evictions"`
	Shards    []shard.ShardStats `json:"shards,omitempty"`
}

func (ss *streamSessions) snapshot() streamsSnapshot {
	var snap streamsSnapshot
	ss.tab.Range(func(_ string, s *streamSession) {
		s.mu.Lock()
		st := s.p.Stats()
		rep := s.p.Refutation()
		s.mu.Unlock()
		snap.Sessions++
		snap.Accepted += st.Accepted
		snap.Scored += st.Scored
		snap.Invalid += st.Invalid
		snap.Windows += st.Windows
		snap.PhaseBoundaries += st.PhaseBoundaries
		snap.DriftAlarms += st.DriftAlarms
		switch rep.Verdict {
		case refute.Suspect:
			snap.RefuteSuspect++
		case refute.Refuted:
			snap.RefuteRefuted++
		default:
			snap.RefuteConsistent++
		}
		for _, rel := range rep.Relations {
			if rel.Violations == 0 {
				continue
			}
			if snap.RelationViolations == nil {
				snap.RelationViolations = make(map[string]uint64)
			}
			snap.RelationViolations[rel.Name] += rel.Violations
			snap.RefuteViolations += rel.Violations
		}
	})
	stats := ss.tab.Stats()
	total := stats.Total()
	snap.Hits, snap.Misses, snap.Evictions = total.Hits, total.Misses, total.Evictions
	snap.Shards = stats.Shards
	return snap
}

// streamErrorLine builds the in-band NDJSON error object emitted when
// a stream fails after the 200 header is out; it carries the same
// envelope as out-of-band errors so clients classify both the same way.
func streamErrorLine(err error) map[string]any {
	return map[string]any{
		"type":  "error",
		"error": apiError{Code: ErrCodeStreamAborted, Message: err.Error()},
	}
}

// streamSummary is the final NDJSON line of every /v1/stream response.
type streamSummary struct {
	Type  string `json:"type"`
	Model string `json:"model"`
	// Machine is the model's machine provenance tag (empty when the
	// model carries none), so a monitoring pipeline fanning over
	// cross-architecture models can attribute a session without a
	// second lookup.
	Machine string `json:"machine,omitempty"`
	// Session echoes the ?session= id ("" = the default session).
	Session  string       `json:"session,omitempty"`
	Ingested int          `json:"ingested"`
	Stats    stream.Stats `json:"stats"`
}

// eventBufs recycles the per-response event buffers of /v1/stream.
var eventBufs = sync.Pool{New: func() any { return new([]byte) }}

// handleStream ingests a POSTed NDJSON sample batch into a monitor
// session and streams back the resulting events, one JSON object per
// line, ending with a "summary" line. The model is addressed with the
// ?model= query parameter and the session timeline with ?session=
// (the body is NDJSON, not an envelope).
//
// The whole batch is decoded and schema-checked before any sample
// reaches the monitors, so a 400 response guarantees no state changed —
// a malformed producer cannot half-poison the phase or drift trackers.
// Samples decode straight onto the model's row layout (the entry's
// schema is immutable, so decoding needs no lock); the lock covers only
// ingestion and scoring. Events are encoded and written after the lock
// is released, so a client that reads its response slowly holds up
// nobody but itself.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r.URL.Query().Get("model"))
	if e == nil {
		return
	}
	if e.schema == nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", e.schemaErr)
		return
	}
	sessionID := r.URL.Query().Get("session")
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := stream.NewDecoder(r.Body)
	var recs []stream.Record
	// A schema violation is held back until the whole body has decoded:
	// a malformed line, an oversized body or an oversized batch anywhere
	// in the body takes precedence over it.
	var schemaErr error
	for {
		rec, err := dec.NextRecord(e.schema)
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
					"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			} else {
				writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", err)
			}
			return
		}
		if rec.Err != nil && schemaErr == nil {
			schemaErr = fmt.Errorf("sample %d: %v", len(recs), rec.Err)
		}
		recs = append(recs, rec)
		if len(recs) > s.cfg.MaxBatch {
			writeError(w, http.StatusRequestEntityTooLarge, ErrCodeTooLarge,
				"batch exceeds %d samples", s.cfg.MaxBatch)
			return
		}
	}
	if len(recs) == 0 {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "no samples in request body")
		return
	}

	sess, err := s.streams.get(e.Ref(), sessionID, func() (*stream.Processor, error) {
		return stream.NewProcessor(e.Model, s.cfg.Stream)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "%v", err)
		return
	}
	if schemaErr != nil {
		writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "%v", schemaErr)
		return
	}

	// Ingest and score under the session lock, buffering the events;
	// the response is written only after the lock is released. The
	// deferred unlock holds even if scoring panics (net/http recovers
	// the handler), so one bad session can never wedge /metrics, whose
	// snapshot takes every session lock.
	var (
		events    []stream.Event
		ingestErr error
		stats     stream.Stats
	)
	func() {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		// Every record passed the schema check above, and each is scored
		// as it is ingested, so the response answers for every sample it
		// accepted. The open refutation window stays open across
		// requests: it closes on the session's section count alone.
		events, ingestErr = sess.p.IngestBatch(recs)
		stats = sess.p.Stats()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bufp := eventBufs.Get().(*[]byte)
	defer eventBufs.Put(bufp)
	buf := (*bufp)[:0]
	var encErr error
	for i := range events {
		if buf, encErr = stream.AppendEvent(buf, &events[i]); encErr != nil {
			break
		}
	}
	*bufp = buf
	if _, err := w.Write(buf); err != nil || encErr != nil {
		// The client is gone, or an event holds a value JSON cannot
		// represent: stop after the events before it, state is consistent.
		return
	}
	// Push completed events to the client now, ahead of the summary.
	if flusher, ok := w.(http.Flusher); ok && len(events) > 0 {
		flusher.Flush()
	}
	enc := json.NewEncoder(w)
	if ingestErr != nil {
		// The monitors kept whatever prefix they ingested; report on the
		// stream since the 200 header is already out.
		_ = enc.Encode(streamErrorLine(ingestErr))
		return
	}
	_ = enc.Encode(streamSummary{
		Type:     "summary",
		Model:    e.Ref(),
		Machine:  e.Model.Describe().Machine,
		Session:  sessionID,
		Ingested: len(recs),
		Stats:    stats,
	})
}
