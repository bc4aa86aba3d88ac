package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"zen-go/internal/obs"
)

// TestServeCountersAgree checks that /v1/stats, /metrics and the serve
// section of the process-wide aggregate count the same requests the same
// way: a failed query is one error, and a query that never reaches the
// answer cache (evaluate, or one rejected before lookup) is no miss.
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
	after := obs.Global().Snapshot().Serve

	want := map[string]int64{"queries": 4, "errors": 1, "cache_hits": 1, "cache_misses": 1}
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
