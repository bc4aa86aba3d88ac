package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file is a zero-dependency Prometheus text-exposition writer: the
// Global telemetry aggregate (and the service layer's histograms and
// gauges) render as `# HELP`/`# TYPE`-annotated families that any
// Prometheus scraper ingests directly. promlint.go holds the matching
// validator used by tests and the check.sh metrics-lint gate.

// MetricsWriter accumulates Prometheus text-format families. Families
// must be written one at a time (Family then its Samples); the writer
// guards against duplicate family names.
type MetricsWriter struct {
	w      io.Writer
	err    error
	opened map[string]bool
	cur    string
}

// NewMetricsWriter wraps w.
func NewMetricsWriter(w io.Writer) *MetricsWriter {
	return &MetricsWriter{w: w, opened: make(map[string]bool)}
}

// Err returns the first write error.
func (m *MetricsWriter) Err() error { return m.err }

// Family begins a metric family: one HELP and one TYPE line. typ is
// "counter", "gauge", or "histogram".
func (m *MetricsWriter) Family(name, typ, help string) {
	if m.err != nil {
		return
	}
	if m.opened[name] {
		m.err = fmt.Errorf("obs: duplicate metric family %q", name)
		return
	}
	m.opened[name] = true
	m.cur = name
	m.printf("# HELP %s %s\n", name, help)
	m.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample of the current family. labels are
// name/value pairs; suffix extends the family name (histograms use
// "_bucket", "_sum", "_count").
func (m *MetricsWriter) Sample(suffix string, labels [][2]string, v float64) {
	if m.err != nil {
		return
	}
	name := m.cur + suffix
	if len(labels) == 0 {
		m.printf("%s %s\n", name, formatValue(v))
		return
	}
	parts := make([]string, len(labels))
	for i, kv := range labels {
		parts[i] = kv[0] + `="` + escapeLabel(kv[1]) + `"`
	}
	m.printf("%s{%s} %s\n", name, strings.Join(parts, ","), formatValue(v))
}

// Histogram writes a full histogram exposition (cumulative buckets with
// le labels, _sum, _count) for one label set of the current family.
func (m *MetricsWriter) Histogram(labels [][2]string, s HistogramSnapshot) {
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Bounds) {
			le = formatValue(s.Bounds[i])
		}
		m.Sample("_bucket", append(append([][2]string(nil), labels...), [2]string{"le", le}), float64(cum))
	}
	m.Sample("_sum", labels, s.SumSeconds)
	m.Sample("_count", labels, float64(cum))
}

func (m *MetricsWriter) printf(format string, args ...any) {
	if m.err == nil {
		_, m.err = fmt.Fprintf(m.w, format, args...)
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteSnapshotMetrics renders a telemetry snapshot (typically the
// Global aggregate) as the Prometheus families of SnapshotMetrics.
func WriteSnapshotMetrics(m *MetricsWriter, s Snapshot) {
	WriteMetricTable(m, SnapshotMetrics, &s)
}

func sortedPhases(ps []PhaseTiming) []PhaseTiming {
	out := append([]PhaseTiming(nil), ps...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
