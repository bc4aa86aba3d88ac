package obs

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRecMergesIntoStats(t *testing.T) {
	var st Stats
	r := Begin(&st, nil, "bdd", "find")
	stop := r.Phase("solve")
	time.Sleep(time.Millisecond)
	stop()
	r.SetDAG(10, 3, 1)
	r.CountSolve(true)
	r.Add(Snapshot{BDD: BDDStats{Nodes: 5, CacheHits: 8, CacheMisses: 2}})
	r.End()

	s := st.Snapshot()
	if s.Analyses != 1 || s.AnalysesBy["bdd"] != 1 {
		t.Fatalf("analyses = %d by=%v, want 1 bdd analysis", s.Analyses, s.AnalysesBy)
	}
	if s.Solves != 1 || s.Sat != 1 {
		t.Fatalf("solves=%d sat=%d, want 1/1", s.Solves, s.Sat)
	}
	p, ok := s.Phase("solve")
	if !ok || p.Count != 1 || p.Total <= 0 {
		t.Fatalf("phase solve = %+v ok=%v, want count 1 and positive total", p, ok)
	}
	if s.DAG.Nodes != 10 || s.BDD.Nodes != 5 {
		t.Fatalf("dag=%+v bdd=%+v", s.DAG, s.BDD)
	}
	if rate := s.BDD.CacheHitRate(); rate != 0.8 {
		t.Fatalf("cache hit rate = %v, want 0.8", rate)
	}
}

func TestSnapshotMergeSemantics(t *testing.T) {
	var st Stats
	st.Merge(&Snapshot{Analyses: 1, DAG: DAGStats{Nodes: 100, Depth: 5, Vars: 2},
		Phases: []PhaseTiming{{Name: "solve", Count: 1, Total: time.Millisecond}}})
	st.Merge(&Snapshot{Analyses: 1, DAG: DAGStats{Nodes: 10, Depth: 50, Vars: 9},
		Phases: []PhaseTiming{{Name: "solve", Count: 2, Total: time.Millisecond}}})
	s := st.Snapshot()
	if s.Analyses != 2 {
		t.Fatalf("analyses = %d, want 2", s.Analyses)
	}
	// DAG keeps the largest analyzed DAG, not a sum.
	if s.DAG.Nodes != 100 || s.DAG.Depth != 5 {
		t.Fatalf("dag = %+v, want the 100-node record", s.DAG)
	}
	p, _ := s.Phase("solve")
	if p.Count != 3 || p.Total != 2*time.Millisecond {
		t.Fatalf("merged phase = %+v", p)
	}
}

func TestNilSafety(t *testing.T) {
	var st *Stats
	if s := st.Snapshot(); s.Analyses != 0 {
		t.Fatal("nil Stats snapshot must be zero")
	}
	st.Reset()
	st.Merge(&Snapshot{})
	var r *Rec
	r.Phase("x")()
	r.SetDAG(1, 1, 1)
	r.CountSolve(true)
	r.ReportBackend(nil)
	r.End()
}

func TestStringReport(t *testing.T) {
	var st Stats
	r := Begin(&st, nil, "sat", "find")
	r.Phase("solve")()
	r.CountSolve(false)
	r.s.SAT = SATStats{Vars: 7, Clauses: 12, Conflicts: 3}
	r.End()
	out := st.String()
	for _, want := range []string{"1 analyses", "sat 1", "solve", "7 vars", "12 clauses", "3 conflicts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report %q missing %q", out, want)
		}
	}
}

func TestCollectTracer(t *testing.T) {
	var tr CollectTracer
	r := Begin(nil, &tr, "bdd", "find")
	r.Phase("solve")()
	r.Event("paths", 4)
	r.End()
	ev := tr.Events()
	var names []string
	for _, e := range ev {
		if e.Span != "find/bdd" {
			t.Fatalf("unexpected span %q", e.Span)
		}
		if strings.HasPrefix(e.Name, "attr:") {
			continue // Rec.End attaches counter attributes; not under test
		}
		names = append(names, e.Name)
	}
	want := []string{"start", "solve", "paths", "end"}
	if len(names) != len(want) {
		t.Fatalf("events = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("events = %v, want %v", names, want)
		}
	}
}

func TestWriterTracer(t *testing.T) {
	var b strings.Builder
	tr := &WriterTracer{W: &b}
	sp := tr.StartSpan("find/bdd")
	sp.Event("solve", time.Millisecond)
	sp.End()
	out := b.String()
	if !strings.Contains(out, "span find/bdd") || !strings.Contains(out, "solve") ||
		!strings.Contains(out, "end find/bdd") {
		t.Fatalf("trace output %q", out)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	r := Begin(nil, nil, "bdd", "find")
	r.CountSolve(true)
	r.End()

	rr := httptest.NewRecorder()
	Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/zenstats", nil))
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rr.Body.String())
	}
	if snap.Solves < 1 || snap.Analyses < 1 {
		t.Fatalf("global snapshot not reflected: %+v", snap)
	}
}

func TestStartDebugServerGracefulShutdown(t *testing.T) {
	addr, shutdown, err := StartDebugServer("localhost:0")
	if err != nil {
		t.Fatalf("StartDebugServer: %v", err)
	}
	resp, err := http.Get("http://" + addr + "/debug/zenstats")
	if err != nil {
		t.Fatalf("GET zenstats: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zenstats status %d", resp.StatusCode)
	}

	// Shutdown drains and closes the listener: subsequent connections
	// must be refused.
	done := make(chan struct{})
	go func() { shutdown(5 * time.Second); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("shutdown did not return")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatalf("listener still accepting after shutdown")
	}
	// shutdown is idempotent.
	shutdown(time.Second)
}
