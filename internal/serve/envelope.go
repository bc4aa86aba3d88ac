package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"zen-go/internal/core"
	"zen-go/internal/obs"
)

// APIVersion tags every zend response. Agents and CI bots key on it to
// detect envelope changes; bump it only with a compatibility note in
// docs/serve.md.
const APIVersion = "v1"

// Provenance values: how an answer was obtained. They form the contract
// agents use to reason about answer cost and freshness.
const (
	// ProvCold: a solver executed for this request.
	ProvCold = "cold"
	// ProvCached: answered from the result cache (LRU or persisted
	// snapshot) without solver work.
	ProvCached = "cached"
	// ProvCoalesced: answered by another request's in-flight execution
	// (singleflight follower).
	ProvCoalesced = "coalesced"
	// ProvSubsumed: answered by logical implication against a cached
	// entry for a different predicate (see docs/incremental.md).
	ProvSubsumed = "subsumed"
	// ProvDelta: re-verified incrementally by /v1/update, touching only
	// the changed equivalence classes.
	ProvDelta = "delta"
	// ProvBitslice: evaluated by the bitsliced batch engine, 64 inputs
	// per machine-word step (streaming /v1/evaluate).
	ProvBitslice = "bitslice"
	// ProvInterp: evaluated by the scalar interpreter — the streaming
	// endpoint's fallback for models outside the bitslice fragment.
	ProvInterp = "interp"
)

// Stable machine-readable error codes. The message is free-form prose;
// the code is the contract.
const (
	ErrBadRequest      = "bad_request"
	ErrUnknownModel    = "unknown_model"
	ErrNotQueryable    = "not_queryable"
	ErrUnknownBackend  = "unknown_backend"
	ErrBadPredicate    = "bad_predicate"
	ErrBadArgs         = "bad_args"
	ErrUnknownKind     = "unknown_kind"
	ErrBatchTooLarge   = "batch_too_large"
	ErrQueueFull       = "queue_full"
	ErrDraining        = "draining"
	ErrCancelled       = "cancelled"
	ErrInternal        = "internal"
	ErrUnknownInstance = "unknown_instance"
	ErrInstanceExists  = "instance_exists"
	ErrUnknownFamily   = "unknown_family"
	ErrBadRule         = "bad_rule"
	ErrBadDelta        = "bad_delta"
	ErrStreamHeader    = "bad_stream_header"
	ErrStreamItem      = "bad_stream_item"
)

// ErrorInfo is the failure half of the envelope: a stable code plus a
// human-readable message.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Counters reports what an answer cost when it was computed; cached,
// subsumed, and reused answers repeat the original's counters.
type Counters struct {
	// Solves counts solver invocations.
	Solves int64 `json:"solves"`
	// SATConflicts and BDDNodes locate where the solver effort went.
	SATConflicts int64 `json:"sat_conflicts,omitempty"`
	BDDNodes     int64 `json:"bdd_nodes,omitempty"`
}

// Response is the outcome of one query — the versioned envelope shared
// by /v1/query, /v1/batch, and /v1/update results.
type Response struct {
	// APIVersion is the envelope version ("v1").
	APIVersion string `json:"api_version"`
	// RequestID echoes the X-Zen-Request-Id header (generated when the
	// client sent none).
	RequestID string `json:"request_id,omitempty"`
	// Status is the verdict: "sat", "unsat", "valid", "invalid", "ok",
	// "cancelled", "shed", "draining", or "error".
	Status string `json:"verdict"`
	// Provenance records how the answer was obtained; see the Prov*
	// constants. Empty for failed requests.
	Provenance string `json:"provenance,omitempty"`
	// Reused marks an answer whose verdict was transferred untouched by
	// delta re-verification: /v1/update proved the query's footprint is
	// disjoint from the changed equivalence classes.
	Reused bool `json:"reused,omitempty"`
	// FromSnapshot marks a cached answer restored from a persisted BDD
	// snapshot rather than the in-memory LRU.
	FromSnapshot bool `json:"from_snapshot,omitempty"`
	// Model is the witness of a sat find (or the counterexample of an
	// invalid verify), keyed "in" (one argument) or "in0", "in1", ....
	Model map[string]any `json:"model,omitempty"`
	// Models are the findall witnesses.
	Models []map[string]any `json:"models,omitempty"`
	// Value is the evaluate result.
	Value any `json:"value,omitempty"`
	// Predicate echoes the tracked query's predicate in /v1/update
	// results, so agents can correlate each answer without bookkeeping.
	Predicate json.RawMessage `json:"predicate,omitempty"`
	// Counters reports solver cost; nil for failed requests.
	Counters *Counters `json:"counters,omitempty"`
	// ElapsedMS is this request's wall time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the query's span tree, present when Request.Trace was set.
	Trace *obs.SpanNode `json:"trace,omitempty"`
	// Err carries the failure detail for cancelled/shed/error verdicts.
	Err *ErrorInfo `json:"error,omitempty"`

	httpStatus int

	// cond is the query's predicate DAG (nil for evaluate), whose
	// fingerprint the trace and the slow-query log compute when they
	// write one; stats holds the executing solver's telemetry. Cached
	// answers repeat the original's stats.
	cond  *core.Node
	stats *obs.Snapshot
}

// HTTPStatus returns the HTTP status code the response is served with.
func (r *Response) HTTPStatus() int {
	if r.httpStatus == 0 {
		return http.StatusOK
	}
	return r.httpStatus
}

// Cached reports whether the answer came from the result cache
// (in-memory or snapshot) without new solver work.
func (r *Response) Cached() bool { return r.Provenance == ProvCached }

// Coalesced reports whether the answer was computed by another
// request's execution.
func (r *Response) Coalesced() bool { return r.Provenance == ProvCoalesced }

// SolveCount returns the solver-invocation count, 0 when no counters
// were recorded.
func (r *Response) SolveCount() int64 {
	if r.Counters == nil {
		return 0
	}
	return r.Counters.Solves
}

// ErrText returns the error message, "" when the request succeeded.
func (r *Response) ErrText() string {
	if r.Err == nil {
		return ""
	}
	return r.Err.Message
}

// failResponse builds an error-envelope response.
func failResponse(httpStatus int, code, format string, args ...any) *Response {
	status := "error"
	switch code {
	case ErrQueueFull:
		status = "shed"
	case ErrDraining:
		status = "draining"
	case ErrCancelled:
		status = "cancelled"
	}
	return &Response{
		APIVersion: APIVersion,
		Status:     status,
		Err:        &ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)},
		httpStatus: httpStatus,
	}
}
