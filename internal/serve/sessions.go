package serve

import (
	"net/http"

	"repro/internal/refute"
	"repro/internal/stream"
)

// The session handoff surface: GET /v1/sessions lists live monitor
// timelines, POST /v1/sessions/drain removes them all and returns their
// full serialized state, and POST /v1/sessions/restore installs such a
// state dump into a (typically fresh) server. Together they let a
// replica hand its live monitor state to a successor without losing a
// section: drain on the old process, restore on the new one, and every
// producer continues its timeline as if nothing happened. The state
// format round-trips float64 values exactly (shortest-form JSON), so a
// restored session's Stats are byte-identical to the drained one's.

// sessionInfo is one live session in the GET /v1/sessions listing.
type sessionInfo struct {
	Model   string       `json:"model"`
	Session string       `json:"session,omitempty"`
	Stats   stream.Stats `json:"stats"`
}

// sessionState is one session's full transferable state.
type sessionState struct {
	Model   string                `json:"model"`
	Session string                `json:"session,omitempty"`
	State   stream.ProcessorState `json:"state"`
}

// handleSessions lists the live sessions in deterministic (model,
// session) order with each one's monitor stats.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	sessions := []sessionInfo{} // render [] rather than null when empty
	for _, sess := range s.streams.list() {
		sess.mu.Lock()
		st := sess.p.Stats()
		sess.mu.Unlock()
		sessions = append(sessions, sessionInfo{Model: sess.model, Session: sess.id, Stats: st})
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": sessions})
}

// handleSessionsDrain removes every session from the table and returns
// their serialized state. In-flight requests that already hold a
// session pointer finish against it, but their session is no longer
// reachable — the drained dump is the authoritative handoff copy, so
// drain when producers are quiesced. A dump that does not encode puts
// every drained session back and answers 500.
func (s *Server) handleSessionsDrain(w http.ResponseWriter, r *http.Request) {
	drained := s.streams.drain()
	states := make([]sessionState, 0, len(drained))
	for _, sess := range drained {
		sess.mu.Lock()
		st := sess.p.State()
		sess.mu.Unlock()
		states = append(states, sessionState{Model: sess.model, Session: sess.id, State: st})
	}
	b, err := encodeJSON(map[string]any{"sessions": states})
	if err != nil {
		for _, sess := range drained {
			s.streams.put(sess)
		}
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, "encoding the session dump: %v", err)
		return
	}
	sendJSON(w, http.StatusOK, b)
}

// handleSessionsRestore installs a drained state dump. The referenced
// models must be registered (a session cannot score without its model)
// and every state blob must validate; the restore is all-or-nothing, so
// a rejected dump leaves the table untouched. Restored sessions replace
// same-keyed live ones — the dump is the authoritative copy.
func (s *Server) handleSessionsRestore(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Sessions []sessionState `json:"sessions"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	restored := make([]*streamSession, 0, len(req.Sessions))
	for i, st := range req.Sessions {
		e, err := s.reg.Get(st.Model)
		if err != nil {
			writeError(w, http.StatusNotFound, ErrCodeNotFound, "session %d: %v", i, err)
			return
		}
		p, err := stream.RestoreProcessor(e.Model, s.cfg.Stream, st.State)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeBadRequest, "session %d: %v", i, err)
			return
		}
		restored = append(restored, &streamSession{model: e.Ref(), id: st.Session, p: p})
	}
	for _, sess := range restored {
		s.streams.put(sess)
	}
	writeJSON(w, http.StatusOK, map[string]any{"restored": len(restored)})
}

// refutationResponse is the GET /v1/sessions/{id}/refutation body: the
// session's full per-relation counter-consistency report.
type refutationResponse struct {
	Model      string        `json:"model"`
	Session    string        `json:"session,omitempty"`
	Refutation refute.Report `json:"refutation"`
}

// handleSessionRefutation serves one live session's full refutation
// report. The session id is the path element ({id} = "-" addresses the
// model's default session, whose id is empty and therefore not
// addressable literally) and the model ref comes from ?model=, mirroring
// how /v1/stream keys its sessions. 404 means no such live session —
// either it never existed or TTL eviction reclaimed it.
func (s *Server) handleSessionRefutation(w http.ResponseWriter, r *http.Request) {
	e := s.lookup(w, r.URL.Query().Get("model"))
	if e == nil {
		return
	}
	id := r.PathValue("id")
	if id == "-" {
		id = ""
	}
	sess, ok := s.streams.lookup(e.Ref(), id)
	if !ok {
		writeError(w, http.StatusNotFound, ErrCodeNotFound,
			"no live session %q for model %s", id, e.Ref())
		return
	}
	sess.mu.Lock()
	rep := sess.p.Refutation()
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, refutationResponse{Model: sess.model, Session: sess.id, Refutation: rep})
}
