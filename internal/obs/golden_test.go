package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// fullSnapshot sets every counter, gauge and map of a Snapshot to a
// distinct nonzero value, so a golden scrape of it pins every family,
// label and value the exporter writes.
func fullSnapshot() Snapshot {
	var s Snapshot
	s.Analyses = 101
	s.AnalysesBy = map[string]int64{"bdd": 61, "sat": 40}
	s.Solves = 102
	s.Sat = 103
	s.addPhase("build", 3*time.Millisecond, 12)
	s.addPhase("solve", 1500*time.Microsecond, 14)
	s.DAG = DAGStats{Nodes: 104, Depth: 105, Vars: 106}
	s.BDD = BDDStats{Nodes: 107, CacheHits: 108, CacheMisses: 109, UniqueHits: 110}
	s.SAT = SATStats{Vars: 111, Clauses: 112, Learned: 113, Decisions: 114,
		Propagations: 115, Conflicts: 116, Restarts: 117}
	s.Compile = CompileStats{Compiles: 120, Instructions: 121, Registers: 122}
	s.Bitslice = BitsliceStats{Plans: 123, PlanOps: 124, PlanRegs: 125,
		Batches: 126, Packets: 127, Fallbacks: 128}
	s.StateSet = StateSetStats{Transformers: 129, FreshSpaces: 130, Forwards: 131, Reverses: 132}
	s.Fuzz = FuzzStats{Execs: 133, Divergences: 134, Shrinks: 135}
	s.Lint = LintStats{Models: 136, Findings: 137, Suppressed: 138}
	s.Serve = ServeStats{Queries: 139, CacheHits: 140, CacheMisses: 141, Subsumed: 142,
		SnapshotHits: 143, Coalesced: 144, Shed: 145, Cancelled: 146, Errors: 147,
		Updates: 148, DeltaReused: 149, DeltaReverified: 150}
	s.Portfolio = PortfolioStats{Races: 151, WinsBy: map[string]int64{"bdd": 152, "sat": 153},
		ClausesImported: 155, LoserAborts: 156, LoserAbortNs: 157_000_000}
	s.Absint = AbsintStats{Presolves: 158, NodesBefore: 159, NodesAfter: 160, Folds: 161,
		ComparesDecided: 162, BranchesPruned: 163, SlicedInputs: 164,
		AutoPicks: map[string]int64{"bdd": 165, "sat": 166}}
	return s
}

// TestSnapshotMetricsGolden pins the full /metrics rendering of a
// snapshot byte for byte: family order, names, help text, types, labels
// and values.
func TestSnapshotMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	WriteSnapshotMetrics(m, fullSnapshot())
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("WriteSnapshotMetrics drifted from testdata/metrics.golden:\n%s", got)
	}
}

// TestSnapshotReportGolden pins the Snapshot.String report and the JSON
// (the /debug/zenstats and expvar body) of a fully populated snapshot
// merged into itself, so every field's merge rule shows in the output.
func TestSnapshotReportGolden(t *testing.T) {
	full := fullSnapshot()
	var st Stats
	st.Merge(&full)
	st.Merge(&full)
	merged := st.Snapshot()
	js, err := json.MarshalIndent(&merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := full.String() + "\n" + string(js) + "\n"
	want, err := os.ReadFile("testdata/snapshot.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Snapshot report or JSON drifted from testdata/snapshot.golden:\n%s", got)
	}
}

// TestRecAllocs bounds the per-analysis recording cost: Begin, one
// counter add and End allocate the Rec, the AnalysesBy map and its
// bucket, and nothing more.
func TestRecAllocs(t *testing.T) {
	var st Stats
	n := testing.AllocsPerRun(200, func() {
		r := Begin(&st, nil, "bitslice", "evaluate")
		r.Add(Snapshot{Bitslice: BitsliceStats{Batches: 2, Packets: 100}})
		r.End()
	})
	if n > 3 {
		t.Fatalf("Begin/add/End allocates %v times, want <= 3", n)
	}
}
