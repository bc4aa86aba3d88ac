package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zen-go/internal/obs"
)

// TestRequestIDGenerated checks the header satellite: a query without an
// X-Zen-Request-Id gets one, echoed both as a header and in the body.
func TestRequestIDGenerated(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(findEq("demo/add8", 3))
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Zen-Request-Id")
	if len(id) != 16 {
		t.Fatalf("generated id = %q, want 16 hex chars", id)
	}
	var res Response
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.RequestID != id {
		t.Fatalf("body request_id %q != header %q", res.RequestID, id)
	}
}

// TestRequestIDEchoed checks a client-sent id survives the round trip.
func TestRequestIDEchoed(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(findEq("demo/add8", 3))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(body))
	req.Header.Set("X-Zen-Request-Id", "client-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Zen-Request-Id"); got != "client-id-42" {
		t.Fatalf("header = %q, want client-id-42", got)
	}
	var res Response
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "client-id-42" {
		t.Fatalf("body request_id = %q", res.RequestID)
	}
}

// TestInlineTrace checks the tentpole's service surface: "trace": true
// returns the query's span tree inline — request root, analysis child,
// solver phase leaves — with leaf durations consistent with the total.
func TestInlineTrace(t *testing.T) {
	s := newTestServer(t, Config{})
	req := findEq("demo/add8", 11)
	req.Trace = true
	ctx := WithRequestID(context.Background(), "trace-test")
	res := s.Do(ctx, req)
	if res.Status != "sat" {
		t.Fatalf("status = %q (%s)", res.Status, res.ErrText())
	}
	tr := res.Trace
	if tr == nil || tr.Name != "query" {
		t.Fatalf("trace missing or misnamed: %+v", tr)
	}
	for k, want := range map[string]any{
		"model": "demo/add8", "kind": "find", "backend": "bdd",
		"status": "sat", "request_id": "trace-test", "dag": fingerprint(res.cond),
	} {
		if tr.Attrs[k] != want {
			t.Fatalf("root attr %q = %v, want %v", k, tr.Attrs[k], want)
		}
	}
	find := tr.Find("find/bdd")
	if find == nil {
		t.Fatalf("no find/bdd span:\n%s", tr)
	}
	for _, phase := range []string{"solve", "decode"} {
		if find.Find(phase) == nil {
			t.Fatalf("no %s phase span:\n%s", phase, tr)
		}
	}
	// Leaf durations are contained in the root interval, and the root
	// interval is consistent with the reported wall time.
	if leaf := obs.SumLeafDurNS(tr); leaf <= 0 || leaf > tr.DurNS {
		t.Fatalf("leaf sum %d outside root %d", leaf, tr.DurNS)
	}
	if rootMS := float64(tr.DurNS) / 1e6; rootMS > res.ElapsedMS+1 {
		t.Fatalf("root span %.3fms exceeds elapsed %.3fms", rootMS, res.ElapsedMS)
	}

	// An untraced request must carry no tree.
	if res2 := s.Do(ctx, findEq("demo/add8", 11)); res2.Trace != nil {
		t.Fatalf("untraced response has a trace")
	}
}

// TestInlineTraceCached: a cache hit is traced too — the root notes
// cached=true and contains no solver spans (no work happened).
func TestInlineTraceCached(t *testing.T) {
	s := newTestServer(t, Config{})
	if res := s.Do(context.Background(), findEq("demo/add8", 23)); res.Status != "sat" {
		t.Fatalf("warmup: %q", res.Status)
	}
	req := findEq("demo/add8", 23)
	req.Trace = true
	res := s.Do(context.Background(), req)
	if !res.Cached() {
		t.Fatalf("repeat not cached")
	}
	if res.Trace == nil || res.Trace.Attrs["provenance"] != ProvCached {
		t.Fatalf("cached trace = %+v", res.Trace)
	}
	if res.Trace.Find("find/bdd") != nil {
		t.Fatalf("cache hit shows solver spans:\n%s", res.Trace)
	}
}

// TestTraceParallelQueries runs traced queries concurrently: each
// response's tree must describe its own request only — exactly one
// analysis span, and the root's request id is the caller's. Run under
// -race this also checks the span plumbing itself.
func TestTraceParallelQueries(t *testing.T) {
	s := newTestServer(t, Config{Workers: 8, CacheSize: 1})
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct predicates so queries neither coalesce nor hit cache.
			req := findEq("demo/add8", uint64(i%200))
			req.Trace = true
			id := fmt.Sprintf("par-%d", i)
			res := s.Do(WithRequestID(context.Background(), id), req)
			if res.Status != "sat" {
				errs <- fmt.Errorf("query %d: status %q (%s)", i, res.Status, res.ErrText())
				return
			}
			tr := res.Trace
			if tr == nil {
				errs <- fmt.Errorf("query %d: no trace", i)
				return
			}
			if tr.Attrs["request_id"] != id {
				errs <- fmt.Errorf("query %d: trace carries id %v", i, tr.Attrs["request_id"])
				return
			}
			var analyses int
			for _, c := range tr.Children {
				if strings.HasPrefix(c.Name, "find/") {
					analyses++
				}
			}
			if !res.Cached() && !res.Coalesced() && analyses != 1 {
				errs <- fmt.Errorf("query %d: %d analysis spans in tree:\n%s", i, analyses, tr)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMetricsEndpoint is the acceptance criterion: /metrics serves valid
// Prometheus exposition (checked by the parser/linter), including
// per-model histogram bucket series for executed queries.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	if res := s.Do(context.Background(), findEq("demo/add8", 5)); res.Status != "sat" {
		t.Fatalf("seed query: %q", res.Status)
	}
	if res := s.Do(context.Background(), findEq("demo/add8", 5)); !res.Cached() {
		t.Fatalf("seed repeat not cached")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := obs.LintMetrics(strings.NewReader(out)); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"zen_serve_queries_total 2",
		"zen_serve_cache_hits_total 1",
		`zen_serve_model_request_seconds_bucket{model="demo/add8",backend="bdd",verdict="sat",le="+Inf"} 2`,
		`zen_serve_model_request_seconds_count{model="demo/add8",backend="bdd",verdict="sat"} 2`,
		"zen_serve_request_seconds_bucket",
		"zen_analyses_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
}

// TestSlowQueryLog checks the slow-log tentpole piece: queries over the
// threshold emit JSONL records carrying identity, phase breakdown, and
// solver counters.
func TestSlowQueryLog(t *testing.T) {
	var log bytes.Buffer
	// A nanosecond threshold makes every query "slow".
	s := newTestServer(t, Config{SlowLog: &log, SlowThreshold: time.Nanosecond})
	ctx := WithRequestID(context.Background(), "slow-1")
	if res := s.Do(ctx, findEq("demo/add8", 17)); res.Status != "sat" {
		t.Fatalf("query: %q", res.Status)
	}
	if res := s.Do(ctx, findEq("demo/add8", 17)); !res.Cached() {
		t.Fatalf("repeat not cached")
	}

	var recs []SlowQueryRecord
	sc := bufio.NewScanner(&log)
	for sc.Scan() {
		var r SlowQueryRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2\n%s", len(recs), log.String())
	}
	cold := recs[0]
	if cold.RequestID != "slow-1" || cold.Model != "demo/add8" || cold.Kind != "find" {
		t.Fatalf("cold record identity: %+v", cold)
	}
	if cold.Fingerprint == "" || cold.Solves == 0 || cold.ElapsedMS <= 0 {
		t.Fatalf("cold record measurements: %+v", cold)
	}
	// A sub-millisecond solve rounds to 0, so assert presence, not size.
	if _, ok := cold.PhasesMS["solve"]; !ok {
		t.Fatalf("cold record has no solve phase: %+v", cold.PhasesMS)
	}
	warm := recs[1]
	if warm.Provenance != ProvCached || warm.Fingerprint != cold.Fingerprint {
		t.Fatalf("warm record: %+v", warm)
	}
}

// TestSlowQueryLogSampling: with an unreachable threshold, only 1-in-N
// fast queries log, marked sampled.
func TestSlowQueryLogSampling(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{SlowLog: &log, SlowThreshold: time.Hour, SlowSampleEvery: 2})
	for i := 0; i < 4; i++ {
		if res := s.Do(context.Background(), findEq("demo/add8", uint64(30+i))); res.Status != "sat" {
			t.Fatalf("query %d: %q", i, res.Status)
		}
	}
	lines := strings.Count(log.String(), "\n")
	if lines != 2 {
		t.Fatalf("sampled lines = %d, want 2\n%s", lines, log.String())
	}
	var r SlowQueryRecord
	if err := json.Unmarshal([]byte(strings.SplitN(log.String(), "\n", 2)[0]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Sampled {
		t.Fatalf("fast record not marked sampled: %+v", r)
	}
}

// TestStatsQuantilesFromHistogram: the p50/p99 surface survives the
// latency-ring replacement, now answered by the shared histogram.
func TestStatsQuantilesFromHistogram(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 5; i++ {
		s.Do(context.Background(), findEq("demo/add8", uint64(50+i)))
	}
	st := s.Stats()
	if st.P50MS <= 0 || st.P99MS <= 0 {
		t.Fatalf("quantiles empty: p50=%g p99=%g", st.P50MS, st.P99MS)
	}
	if st.P50MS > st.P99MS {
		t.Fatalf("p50 %g > p99 %g", st.P50MS, st.P99MS)
	}
}
