package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"zen-go/internal/obs"
)

// maxBatch bounds /v1/batch fan-out per request.
const maxBatch = 64

// Handler returns the service's HTTP surface:
//
//	GET  /v1/models     model registry listing with argument/result types
//	POST /v1/query      one Request -> one Response
//	POST /v1/batch      {"queries": [Request...]} -> {"results": [Response...]}
//	POST /v1/evaluate   NDJSON stream: header + input lines -> result lines (see stream.go)
//	POST /v1/instances  create a mutable model instance from a rule list
//	GET  /v1/instances  list instances with family/generation/rule counts
//	POST /v1/update     apply rule deltas; delta re-verify tracked queries
//	GET  /v1/lint       lint registry models (same schema as zenlint -json)
//	GET  /v1/stats      service counters and latency quantiles
//	GET  /metrics       Prometheus text-format exposition
//	GET  /healthz       200 while serving, 503 while draining
//	     /debug/...     the standard obs debug surface (zenstats, expvar, pprof)
//
// Every /v1 response carries an X-Zen-Request-Id header — the client's
// own if it sent one, a generated id otherwise.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/evaluate", s.handleEvaluateStream)
	mux.HandleFunc("/v1/instances", s.handleInstances)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/v1/lint", s.handleLint)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/debug/", obs.DebugMux())
	return mux
}

// requestID resolves the request's id (honoring a client-sent
// X-Zen-Request-Id), echoes it on the response, and threads it through
// the context for Do.
func requestID(w http.ResponseWriter, r *http.Request) (context.Context, string) {
	id := r.Header.Get("X-Zen-Request-Id")
	if id == "" {
		id = NewRequestID()
	}
	w.Header().Set("X-Zen-Request-Id", id)
	return WithRequestID(r.Context(), id), id
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ModelInfo is one /v1/models entry.
type ModelInfo struct {
	Name string `json:"name"`
	// Args lists the argument types (refs "in"/"in0".. in predicates).
	Args []any `json:"args"`
	// Out is the result type (ref "out" in predicates).
	Out any `json:"out"`
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	out := make([]ModelInfo, 0, len(s.names))
	for _, name := range s.names {
		m := s.models[name].queryable()
		if m == nil {
			continue // registered but not queryable; zenlint-only
		}
		info := ModelInfo{Name: name, Out: typeDesc(m.QueryOut().Type)}
		for _, a := range m.QueryArgs() {
			info.Args = append(info.Args, typeDesc(a.Type))
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, id := requestID(w, r)
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		res := failResponse(http.StatusBadRequest, ErrBadRequest, "bad request: %v", err)
		res.RequestID = id
		s.publish(res, obs.ServeStats{})
		writeJSON(w, res.HTTPStatus(), res)
		return
	}
	res := s.Do(ctx, &req)
	writeJSON(w, res.HTTPStatus(), res)
}

// BatchRequest and BatchResponse wrap /v1/batch traffic. Queries decode
// per item: a malformed sub-query fails that item with a bad_request
// entry in its slot while the rest of the batch runs normally.
type BatchRequest struct {
	Queries []json.RawMessage `json:"queries"`
}

type BatchResponse struct {
	APIVersion string      `json:"api_version"`
	Results    []*Response `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, id := requestID(w, r)
	var batch BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		s.reject()
		res := failResponse(http.StatusBadRequest, ErrBadRequest, "bad request: %v", err)
		res.RequestID = id
		writeJSON(w, res.HTTPStatus(), res)
		return
	}
	if len(batch.Queries) > maxBatch {
		s.reject()
		res := failResponse(http.StatusBadRequest, ErrBatchTooLarge, "batch too large (max %d)", maxBatch)
		res.RequestID = id
		writeJSON(w, res.HTTPStatus(), res)
		return
	}
	res := s.DoBatchRaw(ctx, batch.Queries)
	writeJSON(w, http.StatusOK, &BatchResponse{APIVersion: APIVersion, Results: res})
}

// DoBatchRaw decodes and runs raw sub-queries concurrently. Decoding is
// per item, so one malformed entry yields one error response in its
// position instead of failing the whole batch.
func (s *Server) DoBatchRaw(ctx context.Context, raws []json.RawMessage) []*Response {
	reqs := make([]*Request, len(raws))
	out := make([]*Response, len(raws))
	batchID := RequestIDFrom(ctx)
	subID := func(i int) string {
		if batchID == "" {
			return ""
		}
		return fmt.Sprintf("%s/%d", batchID, i)
	}
	for i, raw := range raws {
		var req Request
		if err := json.Unmarshal(raw, &req); err != nil {
			res := failResponse(http.StatusBadRequest, ErrBadRequest, "query %d: %v", i, err)
			res.RequestID = subID(i)
			s.publish(res, obs.ServeStats{})
			out[i] = res
			continue
		}
		reqs[i] = &req
	}
	done := make(chan int)
	n := 0
	for i := range reqs {
		if reqs[i] == nil {
			continue
		}
		n++
		go func(i int) {
			qctx := ctx
			if id := subID(i); id != "" {
				qctx = WithRequestID(ctx, id)
			}
			out[i] = s.Do(qctx, reqs[i])
			done <- i
		}(i)
	}
	for ; n > 0; n-- {
		<-done
	}
	return out
}

// DoBatch runs decoded queries concurrently (each contends for the
// worker pool like any other request) and returns responses in order.
// With a request id on the context, each sub-query gets "<id>/<index>"
// so slow-log lines and traces stay attributable within the batch.
func (s *Server) DoBatch(ctx context.Context, reqs []Request) []*Response {
	raws := make([]json.RawMessage, len(reqs))
	for i := range reqs {
		raw, err := json.Marshal(&reqs[i])
		if err != nil {
			raw = []byte("null")
		}
		raws[i] = raw
	}
	return s.DoBatchRaw(ctx, raws)
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{
			"api_version": APIVersion,
			"instances":   s.Instances(),
		})
	case http.MethodPost:
		ctx, id := requestID(w, r)
		var req InstanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			res := failUpdate(http.StatusBadRequest, ErrBadRequest, "bad request: %v", err)
			res.RequestID = id
			writeJSON(w, res.HTTPStatus(), res)
			return
		}
		res := s.CreateInstance(ctx, &req)
		writeJSON(w, res.HTTPStatus(), res)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, id := requestID(w, r)
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		res := failUpdate(http.StatusBadRequest, ErrBadRequest, "bad request: %v", err)
		res.RequestID = id
		writeJSON(w, res.HTTPStatus(), res)
		return
	}
	res := s.DoUpdate(ctx, &req)
	writeJSON(w, res.HTTPStatus(), res)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}
