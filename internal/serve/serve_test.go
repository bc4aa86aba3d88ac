package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// findEq returns a find request for model with predicate out == v.
func findEq(model string, v uint64) *Request {
	return &Request{
		Model: model,
		Kind:  "find",
		Predicate: json.RawMessage(fmt.Sprintf(
			`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":%d}}}`, v)),
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancelFn := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelFn()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestFindQueryRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{})
	res := s.Do(context.Background(), findEq("demo/add8", 7))
	if res.Status != "sat" {
		t.Fatalf("status = %q (%s), want sat", res.Status, res.ErrText())
	}
	in, ok := res.Model["in"].(uint64)
	if !ok || in != 6 {
		t.Fatalf("witness = %v, want in=6", res.Model)
	}
	if res.SolveCount() == 0 {
		t.Fatalf("a cold find must report solver work")
	}
}

func TestEvaluateAndVerify(t *testing.T) {
	s := newTestServer(t, Config{})
	res := s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "evaluate", Args: []json.RawMessage{json.RawMessage("41")},
	})
	if res.Status != "ok" || res.Value.(uint64) != 42 {
		t.Fatalf("evaluate = %q %v (%s), want ok 42", res.Status, res.Value, res.ErrText())
	}
	// out == in+1 can never be 0... except on wraparound: in=255. So
	// "out != 0" is invalid with counterexample in=255.
	res = s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "verify",
		Predicate: json.RawMessage(`{"not":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":0}}}}`),
	})
	if res.Status != "invalid" || res.Model["in"].(uint64) != 255 {
		t.Fatalf("verify = %q %v, want invalid with in=255", res.Status, res.Model)
	}
	res = s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "verify",
		Predicate: json.RawMessage(`{"any":[{"cmp":{"lhs":{"ref":"out"},"op":"ne","rhs":{"ref":"in"}},{"extra":1}}]}`),
	})
	if res.Status != "error" || res.HTTPStatus() != http.StatusBadRequest {
		t.Fatalf("malformed predicate: status = %q http %d, want error 400", res.Status, res.HTTPStatus())
	}
}

// TestCachedRepeatIsFree is the acceptance criterion: a repeated
// identical query is served from the cache with zero new solver work.
func TestCachedRepeatIsFree(t *testing.T) {
	s := newTestServer(t, Config{})
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }

	cold := s.Do(context.Background(), findEq("demo/add8", 9))
	if cold.Status != "sat" || cold.Cached() {
		t.Fatalf("cold query: status %q cached %v", cold.Status, cold.Cached())
	}
	// The repeat arrives as different JSON spelling (whitespace, key
	// order) but compiles to the same DAG node, so it must hit.
	repeat := &Request{
		Model: "demo/add8", Kind: "find",
		Predicate: json.RawMessage(`{ "cmp": { "rhs": {"lit": 9}, "op": "eq", "lhs": {"ref": "out"} } }`),
	}
	warm := s.Do(context.Background(), repeat)
	if warm.Status != "sat" || !warm.Cached() {
		t.Fatalf("repeat query: status %q cached %v, want a cache hit", warm.Status, warm.Cached())
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("solver executions = %d, want 1 (repeat must do zero new solver work)", got)
	}
	if warm.Model["in"].(uint64) != cold.Model["in"].(uint64) {
		t.Fatalf("cached witness differs: %v vs %v", warm.Model, cold.Model)
	}
}

// TestDeadlineCancelsSolver is the acceptance criterion: a Find with a
// 50ms deadline on an expensive query returns within ~2x the deadline
// with cancelled status, and the solver actually stops (it does not pin
// a worker or leak a goroutine at 100% CPU).
func TestDeadlineCancelsSolver(t *testing.T) {
	// One worker: if the cancelled solve kept running, the follow-up
	// query below could never execute.
	s := newTestServer(t, Config{Workers: 1})
	before := runtime.NumGoroutine()

	const deadline = 50 * time.Millisecond
	start := time.Now()
	res := s.Do(context.Background(), &Request{
		Model: "demo/square32", Kind: "find", TimeoutMS: int(deadline / time.Millisecond),
		Predicate: json.RawMessage(`{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":3037000493}}}`),
	})
	elapsed := time.Since(start)
	if res.Status != "cancelled" {
		t.Fatalf("status = %q (%s) after %v, want cancelled", res.Status, res.ErrText(), elapsed)
	}
	if !strings.Contains(res.ErrText(), "deadline") {
		t.Fatalf("error = %q, want a deadline error", res.ErrText())
	}
	// Acceptance bar is ~2x; allow wide slack for loaded CI machines
	// while still catching an unbounded solve.
	if elapsed > 20*deadline {
		t.Fatalf("cancelled query returned after %v, deadline was %v", elapsed, deadline)
	}
	if s.cache.len() != 0 {
		t.Fatalf("cache has %d entries after only a cancelled query, want 0", s.cache.len())
	}

	// The sole worker must abandon the solve and pick up new work: a
	// cheap query after the cancellation has to complete.
	ctx, cancelFn := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelFn()
	if res := s.Do(ctx, findEq("demo/add8", 7)); res.Status != "sat" {
		t.Fatalf("query after cancellation: %q (%s) — the worker never freed up", res.Status, res.ErrText())
	}
	// And nothing may leak: goroutine count returns to the baseline.
	deadlineAt := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadlineAt) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines grew from %d to %d after a cancelled query", before, now)
	}
}

// TestSingleflightCoalesces: N concurrent identical queries cause one
// solver run.
func TestSingleflightCoalesces(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, Queue: 32, CacheSize: -1})
	var execs atomic.Int64
	started := make(chan struct{})
	var once sync.Once
	s.onExec = func(queryKey) {
		execs.Add(1)
		once.Do(func() { close(started) })
		time.Sleep(50 * time.Millisecond) // hold the flight open so followers pile up
	}

	const n = 8
	var wg sync.WaitGroup
	results := make([]*Response, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = s.Do(context.Background(), findEq("demo/add8", 3))
	}()
	<-started // the leader is executing; the rest must coalesce
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Do(context.Background(), findEq("demo/add8", 3))
		}(i)
	}
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("solver executions = %d for %d identical queries, want 1", got, n)
	}
	coalesced := 0
	for i, r := range results {
		if r.Status != "sat" {
			t.Fatalf("query %d: status %q (%s)", i, r.Status, r.ErrText())
		}
		if r.Coalesced() {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", coalesced, n-1)
	}
}

// TestSheddingUnderSaturation: with the pool saturated and the queue
// full, distinct queries are shed with 429.
func TestSheddingUnderSaturation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Queue: 1, CacheSize: -1})
	release := make(chan struct{})
	running := make(chan struct{}, 2)
	s.onExec = func(queryKey) {
		running <- struct{}{}
		<-release
	}
	defer close(release)

	done := make(chan *Response, 2)
	ask := func(v uint64) {
		go func() { done <- s.Do(context.Background(), findEq("demo/add8", v)) }()
	}
	// Occupy the single worker, then the single queue slot, with
	// distinct queries (identical ones would coalesce, not queue). The
	// second is issued only once the first runs: issued while the first
	// still sits in the queue, it would be shed itself.
	ask(100)
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("first query never started")
	}
	ask(101)
	// Wait until the second is admitted to the queue.
	for deadline := time.Now().Add(5 * time.Second); s.pool.queued() < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: depth %d", s.pool.queued())
		}
		time.Sleep(time.Millisecond)
	}

	shedRes := s.Do(context.Background(), findEq("demo/add8", 200))
	if shedRes.Status != "shed" || shedRes.HTTPStatus() != http.StatusTooManyRequests {
		t.Fatalf("saturated query: status %q http %d, want shed 429", shedRes.Status, shedRes.HTTPStatus())
	}
	if s.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", s.Stats().Shed)
	}
}

func TestLRUEvictionAndCollisionSafety(t *testing.T) {
	s := newTestServer(t, Config{CacheSize: 2})
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }

	// Three distinct predicates through a 2-entry cache: the first is
	// evicted, and re-running it must re-execute (no false hit), while
	// the still-resident third hits.
	for _, v := range []uint64{1, 2, 3} {
		if res := s.Do(context.Background(), findEq("demo/add8", v)); res.Status != "sat" {
			t.Fatalf("find %d: %q (%s)", v, res.Status, res.ErrText())
		}
	}
	if s.cache.len() != 2 {
		t.Fatalf("cache len = %d, want 2", s.cache.len())
	}
	res := s.Do(context.Background(), findEq("demo/add8", 3))
	if !res.Cached() || res.Model["in"].(uint64) != 2 {
		t.Fatalf("resident query: cached=%v model=%v, want hit with in=2", res.Cached(), res.Model)
	}
	// The evicted predicate is gone from the LRU, but the subsumption
	// index deliberately outlives eviction: the identical predicate is a
	// trivial implication, so the answer (witness included) transfers
	// without re-executing.
	res = s.Do(context.Background(), findEq("demo/add8", 1))
	if res.Cached() || res.Provenance != ProvSubsumed {
		t.Fatalf("evicted query: provenance %q, want subsumed", res.Provenance)
	}
	if res.Model["in"].(uint64) != 0 {
		t.Fatalf("subsumed query: model = %v, want in=0 witness transfer", res.Model)
	}
	if got := execs.Load(); got != 3 {
		t.Fatalf("executions = %d, want 3 (eviction answered by subsumption)", got)
	}

	// Collision safety across key dimensions: a different kind or model
	// must never share an LRU entry. findall never consults the
	// subsumption index either, so it must re-execute; a find on another
	// backend is answered by implication (satisfiability is
	// backend-independent) with explicit subsumed provenance.
	base := execs.Load()
	res = s.Do(context.Background(), &Request{Model: "demo/add8", Kind: "findall", Max: 3,
		Predicate: findEq("demo/add8", 3).Predicate})
	if res.Cached() || res.Provenance != ProvCold || res.Status != "sat" {
		t.Fatalf("findall variant: provenance %q status %q, want a cold sat", res.Provenance, res.Status)
	}
	res = s.Do(context.Background(), &Request{Model: "demo/add8", Kind: "find", Backend: "sat",
		Predicate: findEq("demo/add8", 3).Predicate})
	if res.Cached() || res.Provenance != ProvSubsumed || res.Status != "sat" {
		t.Fatalf("sat-backend variant: provenance %q status %q, want a subsumed sat", res.Provenance, res.Status)
	}
	if got := execs.Load() - base; got != 1 {
		t.Fatalf("variant executions = %d, want 1 (findall only)", got)
	}
}

func TestShutdownDrainsInflight(t *testing.T) {
	s := New(Config{Workers: 1, CacheSize: -1})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.onExec = func(queryKey) { close(entered); <-release }

	resc := make(chan *Response, 1)
	go func() { resc <- s.Do(context.Background(), findEq("demo/add8", 50)) }()
	<-entered

	// Shutdown with an in-flight query: new queries are rejected at
	// once, and Shutdown blocks until the query finishes.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancelFn := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelFn()
		shutdownDone <- s.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !s.draining.Load(); {
		if time.Now().After(deadline) {
			t.Fatalf("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if res := s.Do(context.Background(), findEq("demo/add8", 51)); res.Status != "draining" || res.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %q http %d, want draining 503", res.Status, res.HTTPStatus())
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) before the in-flight query finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown after drain: %v", err)
	}
	res := <-resc
	if res.Status != "sat" {
		t.Fatalf("in-flight query during drain: %q (%s), want sat", res.Status, res.ErrText())
	}
}

func TestHTTPSurface(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/v1/models")
	if code != http.StatusOK || !strings.Contains(body, "demo/add8") {
		t.Fatalf("/v1/models: %d %s", code, body)
	}

	post := func(path, reqBody string) (int, string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, qbody := post("/v1/query",
		`{"model":"demo/add8","kind":"find","predicate":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}}`)
	if code != http.StatusOK || !strings.Contains(qbody, `"verdict": "sat"`) {
		t.Fatalf("/v1/query: %d %s", code, qbody)
	}
	code, qbody = post("/v1/query", `{"model":"nope","kind":"find","predicate":{"ref":"out"}}`)
	if code != http.StatusNotFound {
		t.Fatalf("/v1/query unknown model: %d %s", code, qbody)
	}

	code, bbody := post("/v1/batch", `{"queries":[
		{"model":"demo/add8","kind":"evaluate","args":[1]},
		{"model":"demo/add8","kind":"find","predicate":{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}}
	]}`)
	if code != http.StatusOK || !strings.Contains(bbody, `"provenance": "cached"`) {
		t.Fatalf("/v1/batch (second query should hit the cache): %d %s", code, bbody)
	}

	code, sbody := get("/v1/stats")
	if code != http.StatusOK || !strings.Contains(sbody, `"cache_hits": 1`) {
		t.Fatalf("/v1/stats: %d %s", code, sbody)
	}
	code, _ = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	code, dbody := get("/debug/zenstats")
	if code != http.StatusOK || !strings.Contains(dbody, `"serve"`) {
		t.Fatalf("/debug/zenstats: %d", code)
	}
}

func TestCodecRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, bad := range []string{"256", "-1", "1.5", `"x"`} {
		res := s.Do(context.Background(), &Request{
			Model: "demo/add8", Kind: "evaluate", Args: []json.RawMessage{json.RawMessage(bad)},
		})
		if res.Status != "error" || res.HTTPStatus() != http.StatusBadRequest {
			t.Fatalf("evaluate(%s): %q http %d, want error 400", bad, res.Status, res.HTTPStatus())
		}
	}
	res := s.Do(context.Background(), &Request{Model: "demo/add8", Kind: "find",
		Predicate: json.RawMessage(`{"cmp":{"lhs":{"ref":"out.nope"},"op":"eq","rhs":{"lit":1}}}`)})
	if res.Status != "error" || !strings.Contains(res.ErrText(), "not an object") {
		t.Fatalf("bad ref path: %q / %s", res.Status, res.ErrText())
	}
}

// TestPortfolioBackend routes a query kind of each shape through the
// portfolio backend and checks the verdicts match the default backend's.
func TestPortfolioBackend(t *testing.T) {
	s := newTestServer(t, Config{PortfolioWorkers: 2})

	res := s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "find", Backend: "portfolio",
		Predicate: findEq("demo/add8", 7).Predicate,
	})
	if res.Status != "sat" || res.Model["in"].(uint64) != 6 {
		t.Fatalf("portfolio find = %q %v (%s), want sat in=6", res.Status, res.Model, res.ErrText())
	}

	res = s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "findall", Backend: "portfolio", Max: 3,
		Predicate: json.RawMessage(`{"cmp":{"lhs":{"ref":"in"},"op":"lt","rhs":{"lit":5}}}`),
	})
	if res.Status != "sat" || len(res.Models) != 3 {
		t.Fatalf("portfolio findall = %q with %d models (%s), want sat with 3", res.Status, len(res.Models), res.ErrText())
	}
	seen := map[uint64]bool{}
	for _, m := range res.Models {
		v := m["in"].(uint64)
		if v >= 5 || seen[v] {
			t.Fatalf("findall models %v: out of range or repeated", res.Models)
		}
		seen[v] = true
	}

	res = s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "verify", Backend: "portfolio",
		Predicate: json.RawMessage(`{"cmp":{"lhs":{"ref":"out"},"op":"ne","rhs":{"ref":"in"}}}`),
	})
	if res.Status != "valid" {
		t.Fatalf("portfolio verify = %q (%s), want valid (in+1 != in over uint8)", res.Status, res.ErrText())
	}

	res = s.Do(context.Background(), &Request{
		Model: "demo/add8", Kind: "find", Backend: "dpll",
		Predicate: findEq("demo/add8", 7).Predicate,
	})
	if res.Status != "error" || res.HTTPStatus() != http.StatusBadRequest {
		t.Fatalf("unknown backend: %q http %d, want error 400", res.Status, res.HTTPStatus())
	}
}

// TestPortfolioBackendCacheKey: portfolio and bdd answers for one
// predicate occupy distinct LRU entries — the portfolio request never
// reads the bdd entry as a plain cache hit. Its verdict does transfer
// through the subsumption index (satisfiability is backend-independent),
// with explicit provenance; the transferred answer then becomes the
// portfolio key's own LRU entry.
func TestPortfolioBackendCacheKey(t *testing.T) {
	s := newTestServer(t, Config{})
	var execs atomic.Int64
	s.onExec = func(queryKey) { execs.Add(1) }
	req := findEq("demo/add8", 11)
	if res := s.Do(context.Background(), req); res.Cached() {
		t.Fatalf("cold bdd query must not hit the cache")
	}
	preq := findEq("demo/add8", 11)
	preq.Backend = "portfolio"
	if res := s.Do(context.Background(), preq); res.Cached() || res.Provenance != ProvSubsumed {
		t.Fatalf("portfolio query: provenance %q, want subsumed (not a shared LRU entry)", res.Provenance)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (portfolio answered by implication)", got)
	}
	if res := s.Do(context.Background(), preq); !res.Cached() {
		t.Fatalf("repeated portfolio query must hit its own cache entry")
	}
}
