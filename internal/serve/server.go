package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zen-go/internal/core"
	"zen-go/internal/obs"
	"zen-go/zen"
)

// Config sizes the service.
type Config struct {
	// Workers bounds concurrent solver executions (default 4).
	Workers int
	// Queue bounds executions waiting for a worker; a query arriving with
	// the queue full is shed with HTTP 429 (default 16).
	Queue int
	// CacheSize bounds the LRU result cache in entries; 0 disables
	// caching (default 256).
	CacheSize int
	// PortfolioWorkers is the SAT worker count for portfolio-backend
	// queries; 0 lets the portfolio pick its own default.
	PortfolioWorkers int
	// DefaultTimeout applies to queries that do not set timeout_ms;
	// zero means no deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps per-query timeout_ms requests; zero means no cap.
	MaxTimeout time.Duration
	// SlowLog, when set, receives one JSON line (a SlowQueryRecord) per
	// query slower than SlowThreshold.
	SlowLog io.Writer
	// SlowThreshold is the slow-query latency cutoff (default 100ms when
	// SlowLog is set).
	SlowThreshold time.Duration
	// SlowSampleEvery additionally logs one in every N fast queries
	// (marked "sampled": true), so the log shows the baseline the slow
	// tail deviates from; 0 disables sampling.
	SlowSampleEvery int
	// SnapshotDir, when set, persists per-model warm state (exact
	// results plus the subsumption index's BDD tables) on drain and
	// loads it on start; see snapshot.go.
	SnapshotDir string
	// Presolve runs the abstract-interpretation presolve pass on every
	// solver query (zen.WithPresolve); zend enables it by default.
	Presolve bool
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Queue == 0 {
		c.Queue = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	return c
}

// Request is one query against a registered model.
type Request struct {
	// Model names a zen.RegisterModel entry (see /v1/models).
	Model string `json:"model"`
	// Kind is "find", "findall", "verify", or "evaluate".
	Kind string `json:"kind"`
	// Backend is "bdd" (default), "sat", "portfolio" (race both, first
	// verdict wins; see docs/portfolio.md), or "auto" (pick statically
	// per query from DAG features; see docs/absint.md).
	Backend string `json:"backend,omitempty"`
	// Predicate is the condition for find/findall/verify; see predJSON.
	Predicate json.RawMessage `json:"predicate,omitempty"`
	// Args are the concrete argument values for evaluate.
	Args []json.RawMessage `json:"args,omitempty"`
	// Max bounds findall enumeration (default 10).
	Max int `json:"max,omitempty"`
	// ListBound bounds symbolic list lengths (0 means
	// zen.DefaultListBound; negative is rejected).
	ListBound int `json:"list_bound,omitempty"`
	// TimeoutMS bounds this query's solve time.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Trace requests an inline span tree of this query's execution in
	// Response.Trace.
	Trace bool `json:"trace,omitempty"`
}

// modelEntry lazily builds a registered model: DAG construction can be
// expensive, so it happens on first use and is shared afterwards.
type modelEntry struct {
	name  string
	build func() zen.Lintable
	allow []string // registration allow-list (for /v1/lint)
	file  string   // registration site (for /v1/lint findings)
	line  int
	once  sync.Once
	l     zen.Lintable
	q     zen.Queryable // nil when the model is not queryable
}

func (e *modelEntry) built() zen.Lintable {
	e.once.Do(func() {
		e.l = e.build()
		if q, ok := e.l.(zen.Queryable); ok {
			e.q = q
		}
	})
	return e.l
}

func (e *modelEntry) queryable() zen.Queryable {
	e.built()
	return e.q
}

// Server executes queries against the model registry. Create one with
// New, serve it with Handler, and stop it with Shutdown.
type Server struct {
	cfg    Config
	models map[string]*modelEntry
	names  []string // sorted
	pool   *workerPool
	cache  *lruCache
	flight *flightGroup
	latAll *obs.Histogram    // every request, for aggregate quantiles
	latVec *obs.HistogramVec // by model, backend, verdict
	slow   *slowLogger       // nil when no slow log is configured

	subsume   *subsumeStore
	snapshots *snapshotStore

	// instances holds mutable model instances created via /v1/instances;
	// see instance.go.
	instMu    sync.RWMutex
	instances map[string]*instance

	draining atomic.Bool

	// counts is this server's tally of zend's counters; count merges
	// each delta into it and into the process-wide aggregate.
	counts obs.Stats

	// onExec, when non-nil, observes every solver execution actually
	// started (cache hits and coalesced waits bypass it). Test hook.
	onExec func(queryKey)
}

// serverMetrics declares the zen_serve_* gauges and histograms, in
// /metrics exposition order. The counters are obs.ServeStats rows of
// obs.SnapshotMetrics; WriteMetrics renders those first.
var serverMetrics = []obs.Metric[Server]{
	{Name: "zen_serve_cache_entries", Help: "Result-cache occupancy.", Kind: obs.KindGauge, Value: func(s *Server) float64 { return float64(s.cache.len()) }},
	{Name: "zen_serve_queue_depth", Help: "Executions waiting for a worker.", Kind: obs.KindGauge, Value: func(s *Server) float64 { return float64(s.pool.queued()) }},
	{Name: "zen_serve_workers", Help: "Configured worker count.", Kind: obs.KindGauge, Value: func(s *Server) float64 { return float64(s.cfg.Workers) }},
	{Name: "zen_serve_draining", Help: "1 while the server drains for shutdown.", Kind: obs.KindGauge, Value: func(s *Server) float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	}},
	{Name: "zen_serve_request_seconds", Help: "Request wall time, all queries.", Kind: obs.KindHistogram, Stable: true, Write: func(m *obs.MetricsWriter, s *Server) {
		m.Histogram(nil, s.latAll.Snapshot())
	}},
	{Name: "zen_serve_model_request_seconds", Help: "Request wall time by model, backend, and verdict.", Kind: obs.KindHistogram, Stable: true, Write: func(m *obs.MetricsWriter, s *Server) {
		for _, series := range s.latVec.Snapshot() {
			m.Histogram([][2]string{
				{"model", series.Values[0]},
				{"backend", series.Values[1]},
				{"verdict", series.Values[2]},
			}, series.Hist)
		}
	}},
}

// New builds a server over the current zen.RegisterModel registry.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		models:    make(map[string]*modelEntry),
		pool:      newWorkerPool(cfg.Workers, cfg.Queue),
		cache:     newLRU(cfg.CacheSize),
		flight:    newFlightGroup(),
		latAll:    obs.NewHistogram(obs.DefaultLatencyBounds()),
		latVec:    obs.NewHistogramVec(obs.DefaultLatencyBounds(), "model", "backend", "verdict"),
		slow:      newSlowLogger(cfg.SlowLog, cfg.SlowThreshold, cfg.SlowSampleEvery),
		subsume:   newSubsumeStore(),
		snapshots: newSnapshotStore(cfg.SnapshotDir),
		instances: make(map[string]*instance),
	}
	for _, m := range zen.RegisteredModels() {
		s.models[m.Name] = &modelEntry{name: m.Name, build: m.Build, allow: m.Allow, file: m.File, line: m.Line}
		s.names = append(s.names, m.Name)
	}
	sort.Strings(s.names)
	s.loadSnapshots()
	publishExpvar(s)
	return s
}

// Shutdown drains the server: new queries are rejected with 503, and
// queued plus in-flight queries run to completion (each bounded by its
// own deadline) until ctx expires, at which point Shutdown returns the
// context's error with work still draining in the background.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.pool.drain()
		close(done)
	}()
	select {
	case <-done:
		return s.writeSnapshots()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do executes one query. It is the direct (non-HTTP) entry point; the
// HTTP handlers decode into a Request and call it. The request id (if
// any) rides in on the context — see WithRequestID.
func (s *Server) Do(ctx context.Context, req *Request) *Response {
	start := time.Now()
	id := RequestIDFrom(ctx)
	var root *obs.TreeSpan
	if req.Trace {
		// The trace is request-scoped: a private root span that nests the
		// solver's analysis spans (via ChildTracer in execute) and returns
		// inline with the response. Untraced requests never touch any of
		// this — tracing stays strictly pay-for-use.
		root = obs.NewTreeTracer().StartRoot("query")
		root.SetAttr("model", req.Model)
		root.SetAttr("kind", req.Kind)
		root.SetAttr("backend", normBackend(req.Backend))
		if id != "" {
			root.SetAttr("request_id", id)
		}
	}
	var d obs.ServeStats
	res := s.do(ctx, req, root, &d)
	elapsed := time.Since(start)
	res.APIVersion = APIVersion
	res.ElapsedMS = float64(elapsed.Microseconds()) / 1000
	res.RequestID = id
	if root != nil {
		root.SetAttr("status", res.Status)
		if res.Provenance != "" {
			root.SetAttr("provenance", res.Provenance)
		}
		if res.cond != nil {
			root.SetAttr("dag", fingerprint(res.cond))
		}
		root.End()
		res.Trace = root.Snapshot()
	}
	s.observeLatency(req, res, elapsed)
	s.slow.maybeLog(id, req, res, elapsed)
	s.publish(res, d)
	return res
}

// normBackend maps a request's backend field to its histogram/trace
// label: the default is bdd, and anything unknown collapses to one
// bounded label value (never client-controlled cardinality).
func normBackend(b string) string {
	switch b {
	case "", "bdd":
		return "bdd"
	case "sat":
		return "sat"
	case "portfolio":
		return "portfolio"
	case "auto":
		return "auto"
	default:
		return "invalid"
	}
}

// observeLatency records the request's wall time in the aggregate and
// the labeled latency histograms.
func (s *Server) observeLatency(req *Request, res *Response, d time.Duration) {
	s.latAll.Observe(d)
	model := req.Model
	if _, ok := s.models[model]; !ok {
		model = "unknown" // bound label cardinality against probe traffic
	}
	s.latVec.With(model, normBackend(req.Backend), res.Status).Observe(d)
}

// do runs one query and records in d how far it got through the answer
// cache tiers; publish adds the outcome and counts d.
func (s *Server) do(ctx context.Context, req *Request, span *obs.TreeSpan, d *obs.ServeStats) *Response {
	if s.draining.Load() {
		return failResponse(http.StatusServiceUnavailable, ErrDraining, "server is shutting down")
	}
	q, resErr := s.prepare(req)
	if resErr != nil {
		return resErr
	}
	q.span = span
	ctx, cancelFn := q.bound(ctx, s.cfg)
	defer cancelFn()

	if q.key.kind == kindEvaluate {
		// Interpreter-speed, concrete-input queries: pooled for fairness
		// but neither cached nor coalesced (their identity lives in the
		// argument values, not in a predicate DAG).
		return s.runPooled(ctx, q)
	}
	if res, ok := s.cache.get(q.key); ok {
		d.CacheHits = 1
		hit := *res
		if hit.Provenance != ProvDelta {
			// Delta-stamped entries keep their provenance (and Reused
			// flag): the interesting fact is that /v1/update vouched for
			// them, not that they sat in the LRU.
			hit.Provenance = ProvCached
		}
		hit.cond = q.cond
		return &hit
	}
	d.CacheMisses = 1
	// The LRU missed; before paying for a solve, try the two cheaper
	// tiers — the persisted snapshot (exact fingerprint match from a
	// previous process) and the subsumption index (an implied answer).
	if hit := s.snapshots.hit(q.key); hit != nil {
		d.SnapshotHits = 1
		hit.cond = q.cond
		s.cache.put(q.key, hit)
		return hit
	}
	if s.cfg.CacheSize > 0 {
		if hit, ok := s.subsume.lookup(q.subKey(), q.args, q.cond, q.key.kind); ok {
			d.Subsumed = 1
			hit.cond = q.cond
			s.cache.put(q.key, hit)
			return hit
		}
	}
	res, coalesced, shedded, err := s.flight.do(ctx, q.key, func(execCtx context.Context, deliver func(*Response)) bool {
		return s.pool.submit(func() {
			r := s.execute(execCtx, q)
			if r.Status != "cancelled" && r.Status != "error" {
				s.cache.put(q.key, r)
				if s.cfg.CacheSize > 0 {
					s.subsume.insert(q.subKey(), q.args, q.cond, r)
				}
				if q.inst != nil {
					q.inst.track(req, q, r)
				}
			}
			deliver(r)
		})
	})
	if shedded {
		return failResponse(http.StatusTooManyRequests, ErrQueueFull, "queue full")
	}
	if err != nil {
		// This request stopped waiting; the execution may still finish for
		// other waiters (or was cancelled if this was the last one).
		return failResponse(0, ErrCancelled, "%v", err)
	}
	out := *res
	if coalesced {
		out.Provenance = ProvCoalesced
	}
	out.cond = q.cond
	return &out
}

// query is a parsed, compiled request.
type query struct {
	key     queryKey
	m       zen.Queryable // resolved model or instance view (immutable)
	inst    *instance     // nil for registry models
	args    []*core.Node  // m.QueryArgs(), cached
	gen     uint64        // instance generation; 0 for registry models
	cond    *core.Node    // find/findall/verify condition (pre-negated for verify)
	env     zen.RawModel
	timeout time.Duration
	span    *obs.TreeSpan // request root span, nil when untraced
}

// subKey is the subsumption world this query compiles into.
func (q *query) subKey() subWorldKey {
	return subWorldKey{model: q.key.model, gen: q.gen, bound: q.key.bound}
}

func (q *query) bound(ctx context.Context, cfg Config) (context.Context, context.CancelFunc) {
	d := q.timeout
	if d == 0 {
		d = cfg.DefaultTimeout
	}
	if cfg.MaxTimeout > 0 && (d == 0 || d > cfg.MaxTimeout) {
		d = cfg.MaxTimeout
	}
	if d == 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// prepare resolves the model and compiles the request into its canonical
// query; the second return is a ready error response when it is invalid.
func (s *Server) prepare(req *Request) (*query, *Response) {
	fail := func(status int, code, format string, args ...any) (*query, *Response) {
		return nil, failResponse(status, code, format, args...) // counted by publish
	}
	var m zen.Queryable
	var gen uint64
	var inst *instance
	if entry, ok := s.models[req.Model]; ok {
		m = entry.queryable()
		if m == nil {
			return fail(http.StatusBadRequest, ErrNotQueryable, "model %q is not queryable", req.Model)
		}
	} else if inst = s.instance(req.Model); inst != nil {
		m, gen = inst.view()
	} else {
		return fail(http.StatusNotFound, ErrUnknownModel, "unknown model %q", req.Model)
	}
	var backend zen.Backend
	switch req.Backend {
	case "", "bdd":
		backend = zen.BDD
	case "sat":
		backend = zen.SAT
	case "portfolio":
		backend = zen.Portfolio
	case "auto":
		backend = zen.Auto
	default:
		return fail(http.StatusBadRequest, ErrUnknownBackend, "unknown backend %q (want bdd, sat, portfolio, or auto)", req.Backend)
	}
	q := &query{
		m:       m,
		inst:    inst,
		args:    m.QueryArgs(),
		gen:     gen,
		timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
	}
	// Normalize the list bound here so the cache key, the subsumption
	// world and the solve all see the bound the solver runs at.
	bound := req.ListBound
	switch {
	case bound < 0:
		return fail(http.StatusBadRequest, ErrBadArgs, "list_bound %d is negative", bound)
	case bound == 0:
		bound = zen.DefaultListBound
	}
	q.key = queryKey{model: req.Model, backend: backend, max: req.Max, bound: bound, gen: gen}
	switch req.Kind {
	case "find", "findall", "verify":
		if req.Kind == "find" {
			q.key.kind, q.key.max = kindFind, 1
		} else if req.Kind == "findall" {
			q.key.kind = kindFindAll
			if q.key.max <= 0 {
				q.key.max = 10
			}
		} else {
			q.key.kind, q.key.max = kindVerify, 1
		}
		if len(req.Predicate) == 0 {
			return fail(http.StatusBadRequest, ErrBadPredicate, "%s query needs a predicate", req.Kind)
		}
		r := &resolver{args: q.args, out: m.QueryOut()}
		cond, err := compilePredicate(req.Predicate, r)
		if err != nil {
			return fail(http.StatusBadRequest, ErrBadPredicate, "%v", err)
		}
		if q.key.kind == kindVerify {
			// A verify searches for a counterexample; valid means none exists.
			cond = zen.Builder().Not(cond)
		}
		// Hash-consing makes structurally identical predicates pointer-equal,
		// so the result cache keys on the node address. The structural
		// fingerprint, which also survives restarts, is computed only
		// where it is read: traces, the slow log and snapshots.
		q.cond = cond
		q.key.cond = cond
	case "evaluate":
		q.key.kind = kindEvaluate
		env, err := decodeArgs(q.args, req.Args)
		if err != nil {
			return fail(http.StatusBadRequest, ErrBadArgs, "%v", err)
		}
		q.env = env
	default:
		return fail(http.StatusBadRequest, ErrUnknownKind, "unknown kind %q (want find/findall/verify/evaluate)", req.Kind)
	}
	return q, nil
}

// runPooled executes q on the worker pool without cache or coalescing
// (evaluate queries).
func (s *Server) runPooled(ctx context.Context, q *query) *Response {
	done := make(chan *Response, 1)
	ok := s.pool.submit(func() { done <- s.execute(ctx, q) })
	if !ok {
		return failResponse(http.StatusTooManyRequests, ErrQueueFull, "queue full")
	}
	select {
	case res := <-done:
		return res
	case <-ctx.Done():
		// The worker still runs to its own ctx check; nobody reads done
		// (buffered), so it exits cleanly.
		return failResponse(0, ErrCancelled, "%v", ctx.Err())
	}
}

// execute runs the solver for a prepared query. It runs on a worker
// goroutine under the execution context (see flightGroup).
func (s *Server) execute(ctx context.Context, q *query) *Response {
	if s.onExec != nil {
		s.onExec(q.key)
	}
	st := &zen.Stats{}
	opts := []zen.Option{zen.WithBackend(q.key.backend), zen.WithStats(st), zen.WithListBound(q.key.bound)}
	if s.cfg.Presolve {
		opts = append(opts, zen.WithPresolve())
	}
	if q.key.backend == zen.Portfolio && s.cfg.PortfolioWorkers > 0 {
		opts = append(opts, zen.WithPortfolioWorkers(s.cfg.PortfolioWorkers))
	}
	if q.span != nil {
		// Parent the solver's analysis span (find/bdd > symeval, solve,
		// decode) under the request root, so the inline trace shows the
		// whole request as one tree.
		opts = append(opts, zen.WithTracer(obs.ChildTracer(q.span)))
	}
	m := q.m
	args := q.args
	res := &Response{Provenance: ProvCold}
	var err error
	switch q.key.kind {
	case kindFind:
		var model zen.RawModel
		var found bool
		model, found, err = zen.FindRaw(ctx, q.cond, args, opts...)
		if found {
			res.Status, res.Model = "sat", encodeModel(args, model)
		} else {
			res.Status = "unsat"
		}
	case kindFindAll:
		var models []zen.RawModel
		models, err = zen.FindAllRaw(ctx, q.cond, args, q.key.max, opts...)
		res.Status = "unsat"
		if len(models) > 0 {
			res.Status = "sat"
			res.Models = make([]map[string]any, len(models))
			for i, model := range models {
				res.Models[i] = encodeModel(args, model)
			}
		}
	case kindVerify:
		var model zen.RawModel
		var found bool
		model, found, err = zen.FindRaw(ctx, q.cond, args, opts...)
		if found {
			res.Status, res.Model = "invalid", encodeModel(args, model)
		} else {
			res.Status = "valid"
		}
	case kindEvaluate:
		var v any
		out, everr := zen.EvaluateRaw(ctx, m.QueryOut(), q.env)
		if everr == nil {
			v = encodeValue(out)
		}
		err = everr
		res.Status, res.Value = "ok", v
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return failResponse(0, ErrCancelled, "%v", err)
		}
		return failResponse(http.StatusInternalServerError, ErrInternal, "%v", err)
	}
	snap := st.Snapshot()
	res.Counters = &Counters{
		Solves:       snap.Solves,
		SATConflicts: snap.SAT.Conflicts,
		BDDNodes:     snap.BDD.Nodes,
	}
	res.stats = &snap
	return res
}

// encodeModel renders a solver model with positional argument keys.
func encodeModel(args []*core.Node, m zen.RawModel) map[string]any {
	out := make(map[string]any, len(args))
	for i, a := range args {
		out[argName(i, len(args))] = encodeValue(m[a.VarID])
	}
	return out
}

func argName(i, n int) string {
	if n == 1 {
		return "in"
	}
	return fmt.Sprintf("in%d", i)
}

// publish adds one finished request's outcome to d, the cache tiers do
// recorded for it, and counts it.
func (s *Server) publish(res *Response, d obs.ServeStats) {
	switch res.Status {
	case "shed", "draining":
		d.Shed = 1
	case "cancelled":
		d.Queries, d.Cancelled = 1, 1
	case "error":
		d.Queries, d.Errors = 1, 1
	default:
		d.Queries = 1
	}
	if res.Coalesced() {
		d.Coalesced = 1
	}
	s.count(d)
}

// reject counts a request refused before any query was read from it (a
// malformed batch envelope or stream header) as one error. It is not a
// query.
func (s *Server) reject() { s.count(obs.ServeStats{Errors: 1}) }

// count merges one delta of zend's counters into this server's tally and
// the process-wide aggregate, so /v1/stats, /metrics and /debug/zenstats
// read the same counts.
func (s *Server) count(d obs.ServeStats) {
	snap := obs.Snapshot{Serve: d}
	s.counts.Merge(&snap)
	obs.Global().Merge(&snap)
}

// Stats is the service's self-reported state, served on /v1/stats and
// published as the expvar "zenserve": the server's counters, whose JSON
// keys encoding/json inlines, and the values derived at read time.
type Stats struct {
	obs.ServeStats
	CacheHitRate float64 `json:"cache_hit_rate"`
	CacheLen     int     `json:"cache_len"`
	QueueDepth   int     `json:"queue_depth"`
	Workers      int     `json:"workers"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	Draining     bool    `json:"draining"`
}

// Stats snapshots the service counters. The latency quantiles are
// estimated from the aggregate request histogram (the same one /metrics
// exposes), interpolated within buckets.
func (s *Server) Stats() Stats {
	c := s.counts.Snapshot().Serve
	return Stats{
		ServeStats:   c,
		CacheHitRate: c.CacheHitRate(),
		CacheLen:     s.cache.len(),
		QueueDepth:   s.pool.queued(),
		Workers:      s.cfg.Workers,
		P50MS:        s.latAll.Quantile(0.50) * 1000,
		P99MS:        s.latAll.Quantile(0.99) * 1000,
		Draining:     s.draining.Load(),
	}
}

// expvarServer holds the server published as the "zenserve" expvar;
// expvar names are process-global and cannot be republished, so the
// variable reads through this pointer (tests creating several servers
// observe the most recent one).
var (
	expvarServer atomic.Pointer[Server]
	expvarOnce   sync.Once
)

func publishExpvar(s *Server) {
	expvarServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("zenserve", expvar.Func(func() any {
			if srv := expvarServer.Load(); srv != nil {
				return srv.Stats()
			}
			return nil
		}))
	})
}
