package serve

import (
	"io"
	"net/http"

	"zen-go/internal/obs"
)

// handleMetrics serves GET /metrics in Prometheus text exposition
// format: the process-wide aggregate, with this server's own counters in
// place of its serve section, then the server's gauges and latency
// histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.WriteMetrics(w)
}

// WriteMetrics renders the full scrape document. Exposed apart from the
// handler so `zend -check-metrics` and tests can lint the output without
// a listener.
func (s *Server) WriteMetrics(w io.Writer) error {
	m := obs.NewMetricsWriter(w)
	snap := obs.Global().Snapshot()
	snap.Serve = s.counts.Snapshot().Serve
	obs.WriteSnapshotMetrics(m, snap)
	obs.WriteMetricTable(m, serverMetrics, s)
	return m.Err()
}

// StableMetrics lists the stable family names of the scrape: the ones
// dashboards key on, which `zend -check-metrics` requires.
func StableMetrics() []string {
	return append(obs.StableNames(obs.SnapshotMetrics), obs.StableNames(serverMetrics)...)
}
