package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"cqapprox"
	"cqapprox/api"
)

// apiError pairs a stable wire error with its HTTP status. The mapping
// is part of the API contract (DESIGN.md §Service layer): clients
// branch on ErrorInfo.Code, proxies on the status.
type apiError struct {
	status int
	info   api.ErrorInfo
}

func errBadRequest(msg string) *apiError {
	return &apiError{http.StatusBadRequest, api.ErrorInfo{Code: api.CodeBadRequest, Message: msg}}
}

func errUnknownKey() *apiError {
	return &apiError{http.StatusNotFound, api.ErrorInfo{
		Code:    api.CodeUnknownKey,
		Message: "no prepared query under this key (evicted or never prepared here); re-prepare",
	}}
}

func errUnknownDB(name string) *apiError {
	return &apiError{http.StatusNotFound, api.ErrorInfo{
		Code:    api.CodeUnknownDB,
		Message: fmt.Sprintf("no database registered under %q (evicted or never registered here); re-register via POST /v1/db", name),
	}}
}

func errOverloaded() *apiError {
	return &apiError{http.StatusTooManyRequests, api.ErrorInfo{
		Code:    api.CodeOverloaded,
		Message: "server at capacity for this endpoint; retry shortly",
	}}
}

// mapError translates the library's typed errors into the wire
// taxonomy. Order matters: ParseError first (it is the most specific),
// the sentinel wrappers next, everything else is internal.
func mapError(err error) *apiError {
	var (
		perr *cqapprox.ParseError
		pe   *peerError
	)
	switch {
	case errors.As(err, &perr):
		return &apiError{http.StatusBadRequest, api.ErrorInfo{
			Code: api.CodeParseError, Message: perr.Error(), Line: perr.Line, Col: perr.Col,
		}}
	case errors.As(err, &pe):
		return &apiError{http.StatusBadGateway, api.ErrorInfo{
			Code: api.CodePeer, Message: pe.Error(),
		}}
	case errors.Is(err, cqapprox.ErrBudgetExceeded):
		return &apiError{http.StatusUnprocessableEntity, api.ErrorInfo{
			Code: api.CodeBudgetExceeded, Message: err.Error(),
		}}
	case errors.Is(err, cqapprox.ErrBadOrder):
		return &apiError{http.StatusBadRequest, api.ErrorInfo{
			Code: api.CodeBadRequest, Message: err.Error(),
		}}
	case errors.Is(err, cqapprox.ErrNotInClass):
		return &apiError{http.StatusUnprocessableEntity, api.ErrorInfo{
			Code: api.CodeNotInClass, Message: err.Error(),
		}}
	case errors.Is(err, cqapprox.ErrCanceled):
		return &apiError{http.StatusGatewayTimeout, api.ErrorInfo{
			Code: api.CodeCanceled, Message: err.Error(),
		}}
	default:
		return &apiError{http.StatusInternalServerError, api.ErrorInfo{
			Code: api.CodeInternal, Message: err.Error(),
		}}
	}
}

// wireBody is a response body or NDJSON line that encodes itself: the
// answer-bearing ones, whose rows go through the api rows codec instead
// of reflection. Its bytes are what encoding/json would write.
type wireBody interface {
	appendJSON(dst []byte) ([]byte, error)
}

// bodyPool recycles the buffers wire bodies are encoded into. Buffers
// past maxPooledBody are left to the collector.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// appendLine encodes b into the pooled buffer *bp, newline-terminated
// as encoding/json's Encoder ends a value.
func appendLine(bp *[]byte, b wireBody) ([]byte, error) {
	line, err := b.appendJSON((*bp)[:0])
	if err == nil {
		line = append(line, '\n')
	}
	*bp = line
	return line, err
}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// writeJSON writes v as the complete JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, ok := v.(wireBody)
	if !ok {
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
		return
	}
	bp := bodyPool.Get().(*[]byte)
	defer putBody(bp)
	body, err := appendLine(bp, b)
	if err != nil {
		w.WriteHeader(status) // as when encoding/json's Encoder fails: the status, no body
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeError writes e as the standard error envelope; 429s advertise a
// Retry-After so well-behaved clients back off.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	info := e.info
	writeJSON(w, e.status, api.ErrorResponse{Error: &info})
}
