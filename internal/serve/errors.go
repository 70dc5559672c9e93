package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
)

// Every error the API emits — handler rejections and the mux's method
// fallbacks — shares one JSON envelope:
//
//	{"error":{"code":"<stable-code>","message":"<human detail>"}}
//
// The code is the machine-readable half of the contract: clients (and
// cmd/loadgen's error-budget accounting) branch on it, while the
// message stays free to change wording. Codes are deliberately coarse —
// one per failure family, not per call site — so a client switch
// statement stays short and adding a handler never forces a new code.
const (
	// ErrCodeBadRequest: malformed body, schema mismatch, missing or
	// contradictory fields (HTTP 400).
	ErrCodeBadRequest = "bad_request"
	// ErrCodeNotFound: unknown model name or version (HTTP 404).
	ErrCodeNotFound = "not_found"
	// ErrCodeMethodNotAllowed: wrong HTTP method on a known route
	// (HTTP 405, with an Allow header).
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeTooLarge: body over MaxBodyBytes or batch over MaxBatch
	// (HTTP 413).
	ErrCodeTooLarge = "payload_too_large"
	// ErrCodeUnsupported: the model cannot answer this endpoint, e.g.
	// classify on an ensemble (HTTP 422).
	ErrCodeUnsupported = "unsupported"
	// ErrCodeTimeout: the request body did not arrive before the
	// connection's read deadline (HTTP 408).
	ErrCodeTimeout = "timeout"
	// ErrCodeInternal: server-side failure (HTTP 500).
	ErrCodeInternal = "internal"
	// ErrCodeStreamAborted: in-band NDJSON error line on /v1/stream
	// after the 200 header is already out.
	ErrCodeStreamAborted = "stream_aborted"
)

// apiError is the envelope payload.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the full error response body.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeError writes the unified envelope with the given status, code
// and formatted message.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: apiError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// bodyStatus classifies an error reading or decoding a request body:
// 413 when the body exceeds MaxBodyBytes, whatever it holds; 408 when
// the connection's read deadline cut the read off, which is a stalled
// client, not a malformed body; else 400.
func bodyStatus(err error) int {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
}

// writeBodyError answers a request whose body could not be read or
// decoded, with the status bodyStatus gives; a 400 carries err's
// message.
func (s *Server) writeBodyError(w http.ResponseWriter, err error) {
	switch status := bodyStatus(err); status {
	case http.StatusRequestEntityTooLarge:
		writeError(w, status, ErrCodeTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
	case http.StatusRequestTimeout:
		writeError(w, status, ErrCodeTimeout, "request body not received before the connection's read deadline")
	default:
		writeError(w, status, ErrCodeBadRequest, "%v", err)
	}
}
