package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zen-go/internal/obs"
)

// TestServeCountersAgree drives every zend counter at least once and
// walks obs.ServeStats by reflection: on each field, /v1/stats, the
// field's /metrics family and the delta of the process-wide aggregate
// must report the same count, and that count must be the expected one.
// A failed query is one error, a query that never reaches the answer
// cache (evaluate, or one rejected before lookup) is no miss, and a
// request refused before any query was read from it is an error but no
// query. That holds for requests whose body fails to decode too.
func TestServeCountersAgree(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// A previous process leaves one answer in the snapshot directory.
	prev := New(Config{SnapshotDir: dir})
	prev.Do(ctx, findEq("demo/add8", 9))
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := prev.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	before := obs.Global().Snapshot().Serve
	s := newTestServer(t, Config{Workers: 1, Queue: 1, SnapshotDir: dir})
	for i, tc := range []struct {
		req  *Request
		prov string
	}{
		{&Request{Model: "no/such-model", Kind: "find", Predicate: []byte(`{"ref":"out"}`)}, ""},
		{&Request{Model: "demo/add8", Kind: "evaluate", Args: []json.RawMessage{[]byte(`3`)}}, ProvCold},
		{findEq("demo/add8", 7), ProvCold},
		{findEq("demo/add8", 7), ProvCached},
		{findEq("demo/add8", 9), ProvCached}, // from the snapshot
		{reqOf("find", `{"all":[{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}},{"cmp":{"lhs":{"ref":"in"},"op":"eq","rhs":{"lit":4}}}]}`), ProvCold},
		{reqOf("find", `{"cmp":{"lhs":{"ref":"out"},"op":"eq","rhs":{"lit":5}}}`), ProvSubsumed},
	} {
		if res := s.Do(ctx, tc.req); res.Provenance != tc.prov {
			t.Fatalf("request %d: provenance %q (%s), want %q", i, res.Provenance, res.ErrText(), tc.prov)
		}
	}

	// Hold the single worker on one query, then coalesce onto it, give up
	// on it, fill the single queue slot and shed a fourth query.
	var hold atomic.Bool
	hold.Store(true)
	running, release := make(chan struct{}, 1), make(chan struct{})
	s.onExec = func(queryKey) {
		if hold.Load() {
			running <- struct{}{}
			<-release
		}
	}
	done := make(chan *Response, 3)
	ask := func(v uint64) { go func() { done <- s.Do(ctx, findEq("demo/add8", v)) }() }
	ask(100)
	<-running
	ask(100)
	waitFor(t, "a coalesced waiter", func() bool {
		s.flight.mu.Lock()
		defer s.flight.mu.Unlock()
		for _, c := range s.flight.m {
			return c.waiters == 2
		}
		return false
	})
	gone, giveUp := context.WithCancel(ctx)
	giveUp()
	if res := s.Do(gone, findEq("demo/add8", 100)); res.Status != "cancelled" {
		t.Fatalf("abandoned waiter: %q, want cancelled", res.Status)
	}
	ask(101)
	waitFor(t, "a queued query", func() bool { return s.pool.queued() == 1 })
	if res := s.Do(ctx, findEq("demo/add8", 102)); res.Status != "shed" {
		t.Fatalf("saturated query: %q, want shed", res.Status)
	}
	hold.Store(false)
	close(release)
	coalesced := 0
	for range 3 {
		if res := <-done; res.Coalesced() {
			coalesced++
		}
	}
	if coalesced != 1 {
		t.Fatalf("%d coalesced answers, want 1", coalesced)
	}

	// An update that reuses one tracked query and re-verifies the other.
	aclInstance(t, s, "edge1")
	for _, req := range []*Request{allowedOnPort("edge1", 80), deniedOnPort("edge1", 22)} {
		s.Do(ctx, req)
	}
	up := s.DoUpdate(ctx, &UpdateRequest{
		Instance: "edge1",
		Deltas:   []Delta{{Op: "insert", Index: 0, Rule: []byte(`{"Permit": true, "DstLow": 22, "DstHigh": 22}`)}},
	})
	if up.Reused != 1 || up.Reverified != 1 {
		t.Fatalf("update: %+v", up)
	}
	if code, _, _, _ := streamPost(t, s, "{\"model\": \"demo/add8\"}\n{\"args\": [1]}\nnot json\n{\"args\": [2]}\n"); code != 200 {
		t.Fatalf("stream status = %d", code)
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

	want := obs.ServeStats{
		Queries: 15, CacheHits: 1, CacheMisses: 11, Subsumed: 1, SnapshotHits: 1,
		Coalesced: 1, Shed: 1, Cancelled: 1, Errors: 4,
		Updates: 1, DeltaReused: 1, DeltaReverified: 1,
		Streams: 1, StreamItems: 3, StreamErrors: 1,
	}
	stats := s.Stats().ServeStats
	after := obs.Global().Snapshot().Serve
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := map[string]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		var name string
		var v float64
		if _, err := fmt.Sscan(line, &name, &v); err == nil {
			scrape[name] = int64(v)
		}
	}
	var probe obs.Snapshot
	family := map[*int64]string{}
	for _, c := range obs.SnapshotMetrics {
		if c.Field != nil {
			family[c.Field(&probe)] = c.Name
		}
	}
	typ := reflect.TypeOf(want)
	for i := range typ.NumField() {
		field := func(st *obs.ServeStats) int64 { return reflect.ValueOf(st).Elem().Field(i).Int() }
		name := family[reflect.ValueOf(&probe.Serve).Elem().Field(i).Addr().Interface().(*int64)]
		got := [3]int64{field(&stats), scrape[name], field(&after) - field(&before)}
		if n := field(&want); got != [3]int64{n, n, n} {
			t.Errorf("%s: /v1/stats %d, /metrics %s %d, global delta %d; want %d",
				typ.Field(i).Name, got[0], name, got[1], got[2], n)
		}
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
