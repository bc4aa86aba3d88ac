package obs

import "time"

// Reporter is implemented by solver backends that can dump their internal
// counters into a Snapshot (see backends.BDD and backends.SAT).
type Reporter interface {
	ReportInto(*Snapshot)
}

// Rec records one analysis: instrumentation sites create one with Begin,
// time their phases with Phase, harvest backend counters with
// ReportBackend, and close it with End, which merges the record into the
// attached Stats (if any) and the process-wide Global aggregate.
//
// A nil *Rec is valid and inert, so callers on fully-disabled fast paths
// may skip Begin entirely and still call the methods.
type Rec struct {
	out     *Stats
	span    Span
	backend string
	s       Snapshot
}

// Begin opens a record for one analysis on the named backend. out may be
// nil (telemetry still flows to the Global aggregate); tr may be nil (no
// span is opened).
func Begin(out *Stats, tr Tracer, backend, analysis string) *Rec {
	r := &Rec{out: out, backend: backend}
	r.s.Analyses = 1
	if tr != nil {
		r.span = tr.StartSpan(analysis + "/" + backend)
	}
	return r
}

var noop = func() {}

// Phase starts timing the named phase and returns the function that stops
// it. Phases may recur within one analysis (e.g. one solve per model in
// FindAll); their durations and counts accumulate. With a tracer attached
// each phase occurrence is a child span of the analysis span, so a
// TreeTracer sees the real nesting (find/bdd > symeval, solve, decode).
func (r *Rec) Phase(name string) func() {
	if r == nil {
		return noop
	}
	var child Span
	if r.span != nil {
		child = r.span.Child(name)
	}
	start := time.Now()
	return func() {
		d := time.Since(start)
		r.s.addPhase(name, d, 1)
		if child != nil {
			child.End()
		}
	}
}

// SetAttr attaches an attribute to the analysis span (a no-op without a
// tracer).
func (r *Rec) SetAttr(key string, value any) {
	if r != nil && r.span != nil {
		r.span.SetAttr(key, value)
	}
}

// Event emits an ad-hoc span event (a no-op without a tracer).
func (r *Rec) Event(name string, args ...any) {
	if r != nil && r.span != nil {
		r.span.Event(name, args...)
	}
}

// SetDAG records the expression-DAG measurements of the analysis.
func (r *Rec) SetDAG(nodes, depth, vars int) {
	if r == nil {
		return
	}
	r.s.DAG = DAGStats{Nodes: int64(nodes), Depth: int64(depth), Vars: int64(vars)}
}

// CountSolve records one solver invocation and its outcome.
func (r *Rec) CountSolve(sat bool) {
	if r == nil {
		return
	}
	r.s.Solves++
	if sat {
		r.s.Sat++
	}
}

// ReportBackend harvests internal counters from a backend that implements
// Reporter (a no-op for backends that don't).
func (r *Rec) ReportBackend(alg any) {
	if r == nil {
		return
	}
	if rep, ok := alg.(Reporter); ok {
		rep.ReportInto(&r.s)
	}
}

// Add accumulates d into the record under the same rules as Stats.Merge.
// Instrumentation sites pass the section they counted, e.g.
// Add(Snapshot{Bitslice: BitsliceStats{Batches: n}}).
func (r *Rec) Add(d Snapshot) {
	if r == nil {
		return
	}
	r.s.merge(&d)
}

// End closes the span and merges the record into the attached Stats and
// the Global aggregate. End must be called exactly once. Before closing,
// the harvested solver counters are attached to the span as attributes,
// so a trace viewer shows what each analysis cost without a Stats.
func (r *Rec) End() {
	if r == nil {
		return
	}
	if r.span != nil {
		r.span.SetAttr("backend", r.backend)
		if r.s.Solves > 0 {
			r.span.SetAttr("solves", r.s.Solves)
			r.span.SetAttr("sat", r.s.Sat)
		}
		if r.s.BDD.Nodes > 0 {
			r.span.SetAttr("bdd_nodes", r.s.BDD.Nodes)
		}
		if r.s.SAT.Clauses > 0 {
			r.span.SetAttr("sat_clauses", r.s.SAT.Clauses)
			r.span.SetAttr("sat_conflicts", r.s.SAT.Conflicts)
		}
		if r.s.DAG.Nodes > 0 {
			r.span.SetAttr("dag_nodes", r.s.DAG.Nodes)
		}
		if r.s.Portfolio.Races > 0 {
			for k, v := range r.s.Portfolio.WinsBy {
				if v > 0 {
					r.span.SetAttr("portfolio_winner", k)
				}
			}
			r.span.SetAttr("portfolio_loser_abort_ns", r.s.Portfolio.LoserAbortNs)
		}
		r.span.End()
		r.span = nil
	}
	if r.backend != "" {
		r.s.AnalysesBy = map[string]int64{r.backend: 1}
	}
	global.Merge(&r.s)
	if r.out != nil && r.out != &global {
		r.out.Merge(&r.s)
	}
}
