package serve

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// defaultSlowThreshold applies when a slow log is configured without an
// explicit threshold.
const defaultSlowThreshold = 100 * time.Millisecond

// SlowQueryRecord is one line of the slow-query log: everything needed
// to reproduce and diagnose the query without re-running it — identity
// (request id, model, predicate-DAG fingerprint), outcome, the phase
// breakdown, and the solver counters that explain where the time went.
type SlowQueryRecord struct {
	TimeUnixMS  int64   `json:"time_unix_ms"`
	RequestID   string  `json:"request_id,omitempty"`
	Model       string  `json:"model"`
	Kind        string  `json:"kind"`
	Backend     string  `json:"backend"`
	Status      string  `json:"status"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	Fingerprint string  `json:"dag_fingerprint,omitempty"`
	Provenance  string  `json:"provenance,omitempty"`
	// Sampled marks a fast query included by 1-in-N sampling rather than
	// by crossing the threshold.
	Sampled bool  `json:"sampled,omitempty"`
	Solves  int64 `json:"solves"`
	// PhasesMS breaks the solver's wall time down by phase (build,
	// symeval, solve, decode, ...).
	PhasesMS     map[string]float64 `json:"phases_ms,omitempty"`
	DAGNodes     int64              `json:"dag_nodes,omitempty"`
	BDDNodes     int64              `json:"bdd_nodes,omitempty"`
	SATClauses   int64              `json:"sat_clauses,omitempty"`
	SATConflicts int64              `json:"sat_conflicts,omitempty"`
}

// slowLogger emits SlowQueryRecords as JSONL. The fast path costs one
// atomic increment and one duration compare; marshaling and the write
// lock are only paid by queries that actually log.
type slowLogger struct {
	w           io.Writer
	threshold   time.Duration
	sampleEvery int64

	mu   sync.Mutex // serializes line writes
	fast atomic.Int64
}

func newSlowLogger(w io.Writer, threshold time.Duration, sampleEvery int) *slowLogger {
	if w == nil {
		return nil
	}
	if threshold <= 0 {
		threshold = defaultSlowThreshold
	}
	return &slowLogger{w: w, threshold: threshold, sampleEvery: int64(sampleEvery)}
}

// maybeLog writes a record when the query crossed the threshold, or when
// 1-in-N sampling selects a fast one. Nil-safe: an unconfigured logger
// costs one nil check.
func (l *slowLogger) maybeLog(id string, req *Request, res *Response, elapsed time.Duration) {
	if l == nil {
		return
	}
	slow := elapsed >= l.threshold
	if !slow && (l.sampleEvery <= 0 || l.fast.Add(1)%l.sampleEvery != 0) {
		return
	}
	rec := SlowQueryRecord{
		TimeUnixMS: time.Now().UnixMilli(),
		RequestID:  id,
		Model:      req.Model,
		Kind:       req.Kind,
		Backend:    normBackend(req.Backend),
		Status:     res.Status,
		ElapsedMS:  res.ElapsedMS,
		Provenance: res.Provenance,
		Sampled:    !slow,
		Solves:     res.SolveCount(),
	}
	if res.cond != nil {
		rec.Fingerprint = fingerprint(res.cond)
	}
	if s := res.stats; s != nil {
		if len(s.Phases) > 0 {
			rec.PhasesMS = make(map[string]float64, len(s.Phases))
			for _, p := range s.Phases {
				rec.PhasesMS[p.Name] = float64(p.Total.Microseconds()) / 1000
			}
		}
		rec.DAGNodes = s.DAG.Nodes
		rec.BDDNodes = s.BDD.Nodes
		rec.SATClauses = s.SAT.Clauses
		rec.SATConflicts = s.SAT.Conflicts
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, _ = l.w.Write(line)
	l.mu.Unlock()
}
