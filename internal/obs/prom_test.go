package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// sampleSnapshot builds a snapshot with every section populated so the
// exporter renders all families.
func sampleSnapshot() Snapshot {
	var s Snapshot
	s.Analyses = 12
	s.AnalysesBy = map[string]int64{"bdd": 7, "sat": 5}
	s.Solves = 14
	s.Sat = 9
	s.addPhase("build", 3*time.Millisecond, 12)
	s.addPhase("solve", 40*time.Millisecond, 14)
	s.DAG.Nodes = 321
	s.BDD = BDDStats{Nodes: 1000, CacheHits: 400, CacheMisses: 100, UniqueHits: 50}
	s.SAT = SATStats{Vars: 64, Clauses: 900, Learned: 30, Decisions: 200, Propagations: 4000, Conflicts: 25, Restarts: 2}
	s.StateSet = StateSetStats{Transformers: 1, Forwards: 3, Reverses: 2}
	s.Fuzz = FuzzStats{Execs: 500, Divergences: 1}
	s.Lint = LintStats{Models: 4, Findings: 2}
	return s
}

// TestSnapshotMetricsLint round-trips the exporter through the linter:
// whatever WriteSnapshotMetrics emits must be valid exposition format.
func TestSnapshotMetricsLint(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	WriteSnapshotMetrics(m, sampleSnapshot())
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := LintMetrics(strings.NewReader(out)); err != nil {
		t.Fatalf("exporter output fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"zen_analyses_total 12",
		`zen_analyses_by_backend_total{backend="bdd"} 7`,
		`zen_phase_seconds_total{phase="solve"} 0.04`,
		"zen_bdd_nodes_total 1000",
		"zen_sat_propagations_total 4000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsWriterHistogram checks the full histogram exposition shape
// and that it lints, including the le-label bucket series.
func TestMetricsWriterHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second)

	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Family("zen_serve_latency_seconds", "histogram", "Request latency.")
	m.Histogram([][2]string{{"model", "acl"}}, h.Snapshot())
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := LintMetrics(strings.NewReader(out)); err != nil {
		t.Fatalf("histogram fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		`zen_serve_latency_seconds_bucket{model="acl",le="0.001"} 1`,
		`zen_serve_latency_seconds_bucket{model="acl",le="0.01"} 2`,
		`zen_serve_latency_seconds_bucket{model="acl",le="+Inf"} 3`,
		`zen_serve_latency_seconds_count{model="acl"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestMetricsWriterDuplicateFamily(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Family("zen_x_total", "counter", "x")
	m.Family("zen_x_total", "counter", "x again")
	if m.Err() == nil {
		t.Fatal("duplicate family not caught")
	}
}

func TestMetricsWriterLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Family("zen_x_total", "counter", "x")
	m.Sample("", [][2]string{{"model", `a"b\c` + "\n"}}, 1)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if err := LintMetrics(strings.NewReader(buf.String())); err != nil {
		t.Fatalf("escaped label fails lint: %v\n%s", err, buf.String())
	}
}

// TestLintMetricsRejects feeds the linter documents with each class of
// violation it exists to catch.
func TestLintMetricsRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{
			"bad metric name",
			"# TYPE 0bad counter\n0bad 1\n",
			"bad metric name",
		},
		{
			"bad label name",
			"# TYPE zen_x_total counter\nzen_x_total{0bad=\"v\"} 1\n",
			"bad label name",
		},
		{
			"sample without TYPE",
			"zen_x_total 1\n",
			"without a TYPE",
		},
		{
			"duplicate series",
			"# TYPE zen_x_total counter\nzen_x_total 1\nzen_x_total 2\n",
			"duplicate series",
		},
		{
			"duplicate TYPE",
			"# TYPE zen_x_total counter\n# TYPE zen_x_total counter\nzen_x_total 1\n",
			"duplicate TYPE",
		},
		{
			"TYPE after samples",
			"# TYPE zen_x counter\nzen_x 1\n# TYPE zen_x gauge\n",
			"duplicate TYPE",
		},
		{
			"bad type value",
			"# TYPE zen_x_total chart\nzen_x_total 1\n",
			"bad TYPE",
		},
		{
			"missing +Inf bucket",
			"# TYPE zen_h histogram\n" +
				"zen_h_bucket{le=\"0.1\"} 1\nzen_h_sum 0.05\nzen_h_count 1\n",
			"missing +Inf",
		},
		{
			"non-cumulative buckets",
			"# TYPE zen_h histogram\n" +
				"zen_h_bucket{le=\"0.1\"} 5\nzen_h_bucket{le=\"+Inf\"} 3\nzen_h_sum 1\nzen_h_count 3\n",
			"not cumulative",
		},
		{
			"count mismatch",
			"# TYPE zen_h histogram\n" +
				"zen_h_bucket{le=\"0.1\"} 1\nzen_h_bucket{le=\"+Inf\"} 2\nzen_h_sum 1\nzen_h_count 5\n",
			"_count 5",
		},
		{
			"missing count",
			"# TYPE zen_h histogram\n" +
				"zen_h_bucket{le=\"0.1\"} 1\nzen_h_bucket{le=\"+Inf\"} 2\nzen_h_sum 1\n",
			"missing _count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := LintMetrics(strings.NewReader(tc.doc))
			if err == nil {
				t.Fatalf("lint accepted:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLintMetricsAcceptsLabeledHistograms checks per-label-set histogram
// validation: two label sets, each complete, lint clean.
func TestLintMetricsAcceptsLabeledHistograms(t *testing.T) {
	doc := "# TYPE zen_h histogram\n" +
		"zen_h_bucket{model=\"a\",le=\"0.1\"} 1\nzen_h_bucket{model=\"a\",le=\"+Inf\"} 2\n" +
		"zen_h_sum{model=\"a\"} 0.3\nzen_h_count{model=\"a\"} 2\n" +
		"zen_h_bucket{model=\"b\",le=\"0.1\"} 4\nzen_h_bucket{model=\"b\",le=\"+Inf\"} 4\n" +
		"zen_h_sum{model=\"b\"} 0.1\nzen_h_count{model=\"b\"} 4\n"
	if err := LintMetrics(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
}
