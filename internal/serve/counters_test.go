package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zen-go/internal/obs"
)

// TestServeCountersAgree checks that /v1/stats, /metrics and the serve
// section of the process-wide aggregate count the same requests the same
// way: a failed query is one error, and a query that never reaches the
// answer cache (evaluate, or one rejected before lookup) is no miss.
// That holds for requests whose body fails to decode too.
func TestServeCountersAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	before := obs.Global().Snapshot().Serve
	for _, req := range []*Request{
		{Model: "no/such-model", Kind: "find", Predicate: []byte(`{"ref":"out"}`)},
		{Model: "demo/add8", Kind: "evaluate", Args: []json.RawMessage{[]byte(`3`)}},
		findEq("demo/add8", 7), // cold
		findEq("demo/add8", 7), // cached
	} {
		s.Do(ctx, req)
	}
	// Requests that fail to decode never reach Do: a malformed query and
	// a malformed batch item are failed queries, a bad stream header is
	// an error but no query.
	h := s.Handler()
	for _, r := range []struct{ path, body string }{
		{"/v1/query", `{"model":`},
		{"/v1/batch", `{"queries":[42]}`},
		{"/v1/evaluate", "not a header\n"},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, r.path, strings.NewReader(r.body)))
	}
	after := obs.Global().Snapshot().Serve

	want := map[string]int64{"queries": 6, "errors": 4, "cache_hits": 1, "cache_misses": 1}
	st := s.Stats()
	stats := map[string]int64{"queries": st.Queries, "errors": st.Errors, "cache_hits": st.CacheHits, "cache_misses": st.CacheMisses}
	global := map[string]int64{
		"queries":      after.Queries - before.Queries,
		"errors":       after.Errors - before.Errors,
		"cache_hits":   after.CacheHits - before.CacheHits,
		"cache_misses": after.CacheMisses - before.CacheMisses,
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]int64{}
	for name := range want {
		prefix := "zen_serve_" + name + "_total "
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				var f float64
				fmt.Sscan(v, &f)
				metrics[name] = int64(f)
			}
		}
	}
	for name, n := range want {
		if stats[name] != n || global[name] != n || metrics[name] != n {
			t.Errorf("%s: /v1/stats %d, /metrics %d, global delta %d; want %d",
				name, stats[name], metrics[name], global[name], n)
		}
	}
}
