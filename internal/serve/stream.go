package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"zen-go/internal/core"
	"zen-go/internal/interp"
	"zen-go/internal/obs"
	"zen-go/zen"
)

// Streaming evaluation: POST /v1/evaluate takes newline-delimited JSON —
// one header line naming the model, then one line per input — and
// answers with NDJSON: one start envelope, one result line per input (in
// input order, errors in their slot), and one trailer. Inputs are
// evaluated in chunks of streamChunk through the bitsliced batch engine
// (zen.EvaluateBatchRaw); models outside the bitslice fragment fall back
// to the scalar interpreter with identical results. Chunks run on the
// same bounded worker pool as queries, so a saturated solver queue
// backpressures the stream: the reader stops consuming input until a
// worker frees up, and TCP flow control propagates the stall to the
// client.

// streamChunk is the number of stream items evaluated per engine call —
// one bitsliced step's worth of lanes.
const streamChunk = zen.BatchLanes

// maxStreamLine bounds one NDJSON input line.
const maxStreamLine = 1 << 20

// StreamHeader is the first request line of a /v1/evaluate stream.
type StreamHeader struct {
	// Model names a registered model or a mutable instance.
	Model string `json:"model"`
	// TimeoutMS bounds the whole stream's evaluation time.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// StreamItem is one input line: the model's argument values, encoded
// like Request.Args, plus an optional client id echoed on the result.
type StreamItem struct {
	ID   string            `json:"id,omitempty"`
	Args []json.RawMessage `json:"args"`
}

// StreamStart is the first response line — the stream's envelope.
type StreamStart struct {
	APIVersion string `json:"api_version"`
	RequestID  string `json:"request_id,omitempty"`
	Model      string `json:"model"`
	// Lanes is the batch width of one bitsliced step.
	Lanes int `json:"lanes"`
	// Provenance is the engine serving this stream: "bitslice", or
	// "interp" for models outside the bitslice fragment.
	Provenance string `json:"provenance"`
}

// StreamResult is one per-input response line. Items that fail to
// decode or evaluate carry the error in their slot; the stream
// continues.
type StreamResult struct {
	// Index is the zero-based position of the input in the stream.
	Index int64 `json:"index"`
	// ID echoes the item's client id, when it sent one.
	ID     string     `json:"id,omitempty"`
	Status string     `json:"verdict"` // "ok" or "error"
	Value  any        `json:"value,omitempty"`
	Err    *ErrorInfo `json:"error,omitempty"`
}

// StreamTrailer is the last response line.
type StreamTrailer struct {
	Done bool `json:"done"`
	// Items counts input lines consumed; Errors counts the subset that
	// failed (in-slot); Batches counts engine calls.
	Items   int64 `json:"items"`
	Errors  int64 `json:"errors"`
	Batches int64 `json:"batches"`
	// Provenance repeats the stream engine from StreamStart.
	Provenance string  `json:"provenance"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Err is set when the stream terminated early (deadline, client
	// disconnect, drain); consumed inputs still got their result lines.
	Err *ErrorInfo `json:"error,omitempty"`
}

func (s *Server) handleEvaluateStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, id := requestID(w, r)
	fail := func(status int, code, format string, args ...any) {
		s.reject()
		res := failResponse(status, code, format, args...)
		res.RequestID = id
		writeJSON(w, res.HTTPStatus(), res)
	}
	if s.draining.Load() {
		fail(http.StatusServiceUnavailable, ErrDraining, "server is shutting down")
		return
	}

	in := bufio.NewScanner(r.Body)
	in.Buffer(make([]byte, 64<<10), maxStreamLine)
	if !in.Scan() {
		fail(http.StatusBadRequest, ErrStreamHeader, "empty stream: want a header line")
		return
	}
	var hdr StreamHeader
	if err := json.Unmarshal(in.Bytes(), &hdr); err != nil {
		fail(http.StatusBadRequest, ErrStreamHeader, "bad header line: %v", err)
		return
	}
	var q zen.Queryable
	if entry, ok := s.models[hdr.Model]; ok {
		if q = entry.queryable(); q == nil {
			fail(http.StatusBadRequest, ErrNotQueryable, "model %q is not queryable", hdr.Model)
			return
		}
	} else if inst := s.instance(hdr.Model); inst != nil {
		q, _ = inst.view()
	} else {
		fail(http.StatusNotFound, ErrUnknownModel, "unknown model %q", hdr.Model)
		return
	}

	d := time.Duration(hdr.TimeoutMS) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d == 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	var cancelFn context.CancelFunc = func() {}
	if d > 0 {
		ctx, cancelFn = context.WithTimeout(ctx, d)
	}
	defer cancelFn()

	s.count(obs.ServeStats{Streams: 1})
	start := time.Now()
	prov := ProvInterp
	if zen.BatchCompiles(q) {
		prov = ProvBitslice
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(&StreamStart{
		APIVersion: APIVersion,
		RequestID:  id,
		Model:      hdr.Model,
		Lanes:      streamChunk,
		Provenance: prov,
	})
	flush()

	args := q.QueryArgs()
	trailer := &StreamTrailer{Done: true, Provenance: prov}
	abort := func(code, msg string) {
		trailer.Err = &ErrorInfo{Code: code, Message: msg}
	}
	var index int64
	for trailer.Err == nil {
		chunk := s.readChunk(in, args, &index)
		if len(chunk) == 0 {
			if err := in.Err(); err != nil {
				abort(ErrStreamItem, "reading stream: "+err.Error())
			}
			break
		}
		trailer.Items += int64(len(chunk))
		// On failure every consumed item still answers — evalChunk stamps
		// in-slot errors and arms the trailer via abort.
		s.evalChunk(ctx, q, chunk, abort)
		trailer.Batches++
		d := obs.ServeStats{StreamItems: int64(len(chunk))}
		for _, it := range chunk {
			if it.res.Err != nil {
				d.StreamErrors++
			}
			_ = enc.Encode(it.res)
		}
		trailer.Errors += d.StreamErrors
		s.count(d)
		flush()
	}
	trailer.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	_ = enc.Encode(trailer)
	flush()
}

// streamSlot is one consumed input: its decoded environment (nil when
// decoding failed) and the result line under construction.
type streamSlot struct {
	env zen.RawModel
	res *StreamResult
}

// readChunk consumes up to streamChunk input lines, decoding each
// against the model's argument types. Malformed lines produce an
// in-slot error result and no environment.
func (s *Server) readChunk(in *bufio.Scanner, args []*core.Node, index *int64) []*streamSlot {
	var chunk []*streamSlot
	for len(chunk) < streamChunk && in.Scan() {
		line := in.Bytes()
		if len(trimSpace(line)) == 0 {
			continue // ignore blank lines between items
		}
		slot := &streamSlot{res: &StreamResult{Index: *index}}
		*index++
		var item StreamItem
		if err := json.Unmarshal(line, &item); err != nil {
			slot.res.Status = "error"
			slot.res.Err = &ErrorInfo{Code: ErrStreamItem, Message: "bad item line: " + err.Error()}
		} else {
			slot.res.ID = item.ID
			env, err := decodeArgs(args, item.Args)
			if err != nil {
				slot.res.Status = "error"
				slot.res.Err = &ErrorInfo{Code: ErrBadArgs, Message: err.Error()}
			} else {
				slot.env = env
			}
		}
		chunk = append(chunk, slot)
	}
	return chunk
}

// evalChunk runs one chunk's decodable items through the batch engine on
// the worker pool, filling each slot's result. When the chunk cannot run
// (cancellation or drain) it stamps in-slot errors on every live item
// and terminates the stream via abort.
func (s *Server) evalChunk(ctx context.Context, q zen.Queryable, chunk []*streamSlot, abort func(code, msg string)) {
	envs := make([]zen.RawModel, 0, len(chunk))
	live := make([]*streamSlot, 0, len(chunk))
	for _, slot := range chunk {
		if slot.env != nil {
			envs = append(envs, slot.env)
			live = append(live, slot)
		}
	}
	if len(envs) == 0 {
		return
	}
	type outcome struct {
		vs  []*interp.Value
		err error
	}
	done := make(chan outcome, 1)
	if !s.submitWait(ctx, func() {
		vs, err := zen.EvaluateBatchRaw(ctx, q, envs)
		done <- outcome{vs, err}
	}) {
		code, msg := ErrDraining, "server is shutting down"
		if ctx.Err() != nil {
			code, msg = ErrCancelled, ctx.Err().Error()
		}
		for _, slot := range live {
			slot.res.Status = "error"
			slot.res.Err = &ErrorInfo{Code: code, Message: msg}
		}
		abort(code, msg)
		return
	}
	var out outcome
	select {
	case out = <-done:
	case <-ctx.Done():
		// The worker still observes ctx and exits; nobody blocks on the
		// buffered channel.
		out = outcome{err: ctx.Err()}
	}
	if out.err != nil {
		code := ErrInternal
		if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
			code = ErrCancelled
		}
		for _, slot := range live {
			slot.res.Status = "error"
			slot.res.Err = &ErrorInfo{Code: code, Message: out.err.Error()}
		}
		if code == ErrCancelled {
			abort(code, out.err.Error())
		}
		return
	}
	for i, slot := range live {
		slot.res.Status = "ok"
		slot.res.Value = encodeValue(out.vs[i])
	}
}

// submitWait submits f to the worker pool, blocking while the queue is
// full instead of shedding — mid-stream the right overload behavior is
// backpressure, not a 429. It gives up when the context ends or the
// server drains.
func (s *Server) submitWait(ctx context.Context, f func()) bool {
	for {
		if s.pool.submit(f) {
			return true
		}
		if s.draining.Load() || ctx.Err() != nil {
			return false
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	return b
}
