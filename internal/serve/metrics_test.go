package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestServeMetricsGolden drives a fresh server through a fixed request
// sequence and pins the zen_serve_* part of its /metrics scrape byte for
// byte. Histogram sample lines carry wall times and are dropped; their
// HELP/TYPE lines stay. The process-wide zen_* families depend on what
// else ran in the process and are pinned by internal/obs's golden.
func TestServeMetricsGolden(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	for i, req := range []*Request{
		findEq("demo/add8", 7), // cold
		findEq("demo/add8", 7), // cached
		reqOf("find", `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":4}}}]}`),
		reqOf("find", `{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}`), // subsumed
		reqOf("verify", `{"cmp":{"lhs":{"ref":"out"},"op":"ne","rhs":{"lit":0}}}`),
		{Model: "demo/add8", Kind: "evaluate", Args: []json.RawMessage{[]byte(`3`)}},
		{Model: "no/such-model", Kind: "find", Predicate: []byte(`{"ref":"out"}`)},
	} {
		if res := s.Do(ctx, req); res.Status == "" {
			t.Fatalf("request %d: empty status", i)
		}
	}
	aclInstance(t, s, "edge1")
	for _, req := range []*Request{allowedOnPort("edge1", 80), deniedOnPort("edge1", 22)} {
		s.Do(ctx, req)
	}
	up := s.DoUpdate(ctx, &UpdateRequest{
		Instance: "edge1",
		Deltas:   []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`)}},
	})
	if up.Status != "updated" {
		t.Fatalf("update: %+v", up)
	}
	if code, _, _, _ := streamPost(t, s, "{\"model\": \"demo/add8\"}\n{\"args\": [1]}\nnot json\n{\"args\": [2]}\n"); code != 200 {
		t.Fatalf("stream status = %d", code)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		name := strings.TrimPrefix(strings.TrimPrefix(line, "# HELP "), "# TYPE ")
		if !strings.HasPrefix(name, "zen_serve_") {
			continue
		}
		if !strings.HasPrefix(line, "#") && strings.Contains(line, "_seconds_") {
			continue // histogram sample: wall time
		}
		got.WriteString(line)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("zen_serve_* scrape drifted from testdata/metrics.golden:\n%s", got.String())
	}
}

// TestStableMetrics pins the family names the counter tables mark
// stable: dropping a Stable flag would silently shrink what `zend
// -check-metrics` guards.
func TestStableMetrics(t *testing.T) {
	got := StableMetrics()
	sort.Strings(got)
	want := []string{
		"zen_analyses_total",
		"zen_auto_backend_picks_total",
		"zen_bitslice_packets_total",
		"zen_portfolio_races_total",
		"zen_presolve_runs_total",
		"zen_serve_cache_hits_total",
		"zen_serve_cache_snapshot_hits_total",
		"zen_serve_cache_subsumed_total",
		"zen_serve_delta_reused_total",
		"zen_serve_delta_reverified_total",
		"zen_serve_model_request_seconds",
		"zen_serve_queries_total",
		"zen_serve_request_seconds",
		"zen_serve_stream_items_total",
		"zen_serve_updates_total",
		"zen_solves_total",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("stable families = %v, want %v", got, want)
	}
}
