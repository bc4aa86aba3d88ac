package obs

import (
	"sort"
	"unsafe"
)

// Kind is the Prometheus type of a metric family. The zero value is
// KindCounter, the type of almost every row.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// Metric is one row of a counter table: a telemetry value declared once,
// with everything the merge, the /metrics exposition and the
// `zend -check-metrics` gate need to know about it. T is the record the
// row reads: Snapshot for the solver aggregate (SnapshotMetrics), the
// live server for zend's own families (internal/serve).
type Metric[T any] struct {
	// Name is the Prometheus family name; empty for a value that is
	// merged but not exported.
	Name string
	Help string
	Kind Kind
	// Label names the label of a map-valued counter (Map set).
	Label string
	// Stable marks a family name dashboards key on: `zend
	// -check-metrics` fails when a stable family is missing.
	Stable bool

	// Field points at an additive counter, Map at an additive labelled
	// counter. Snapshot.merge sums every row that sets one of them.
	Field func(*T) *int64
	Map   func(*T) *map[string]int64
	// Value, when set, is the exported sample in place of *Field: a unit
	// conversion, or a value read from live state.
	Value func(*T) float64
	// Write, when set, writes the family's samples itself (phase
	// timings, histograms).
	Write func(*MetricsWriter, *T)
}

// WriteMetricTable renders every named row of table, in row order, as
// one family of samples read from rec.
func WriteMetricTable[T any](m *MetricsWriter, table []Metric[T], rec *T) {
	for i := range table {
		c := &table[i]
		if c.Name == "" {
			continue
		}
		m.Family(c.Name, c.Kind.String(), c.Help)
		switch {
		case c.Write != nil:
			c.Write(m, rec)
		case c.Value != nil:
			m.Sample("", nil, c.Value(rec))
		case c.Map != nil:
			vals := *c.Map(rec)
			keys := make([]string, 0, len(vals))
			for k := range vals {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				m.Sample("", [][2]string{{c.Label, k}}, float64(vals[k]))
			}
		default:
			m.Sample("", nil, float64(*c.Field(rec)))
		}
	}
}

// StableNames returns the family names of table's stable rows.
func StableNames[T any](table []Metric[T]) []string {
	var names []string
	for _, c := range table {
		if c.Stable {
			names = append(names, c.Name)
		}
	}
	return names
}

// SnapshotMetrics is the solver telemetry table: one row per Snapshot
// counter, in /metrics exposition order. The Serve section is merged but
// not exported: the live server exposes its own zen_serve_* families, and
// reporting the same totals under two names would make every dashboard
// ambiguous. DAG (a max, not a sum) and Phases merge by their own rules.
var SnapshotMetrics = []Metric[Snapshot]{
	{Name: "zen_analyses_total", Help: "Completed analyses (Find, Verify, FindAll, Evaluate, ...).", Stable: true, Field: func(s *Snapshot) *int64 { return &s.Analyses }},
	{Name: "zen_analyses_by_backend_total", Help: "Completed analyses by solver backend.", Label: "backend", Map: func(s *Snapshot) *map[string]int64 { return &s.AnalysesBy }},
	{Name: "zen_solves_total", Help: "Solver invocations (FindAll re-solves count individually).", Stable: true, Field: func(s *Snapshot) *int64 { return &s.Solves }},
	{Name: "zen_solves_sat_total", Help: "Solver invocations that returned a model.", Field: func(s *Snapshot) *int64 { return &s.Sat }},
	{Name: "zen_phase_seconds_total", Help: "Accumulated wall time per analysis phase.", Write: func(m *MetricsWriter, s *Snapshot) {
		for _, p := range sortedPhases(s.Phases) {
			m.Sample("", [][2]string{{"phase", p.Name}}, p.Total.Seconds())
		}
	}},
	{Name: "zen_phase_count_total", Help: "Occurrences per analysis phase.", Write: func(m *MetricsWriter, s *Snapshot) {
		for _, p := range sortedPhases(s.Phases) {
			m.Sample("", [][2]string{{"phase", p.Name}}, float64(p.Count))
		}
	}},
	{Name: "zen_dag_nodes_max", Help: "Expression-DAG nodes of the largest analyzed model.", Kind: KindGauge, Value: func(s *Snapshot) float64 { return float64(s.DAG.Nodes) }},

	{Name: "zen_bdd_nodes_total", Help: "Allocated nonterminal BDD nodes.", Field: func(s *Snapshot) *int64 { return &s.BDD.Nodes }},
	{Name: "zen_bdd_cache_hits_total", Help: "BDD operation-cache hits.", Field: func(s *Snapshot) *int64 { return &s.BDD.CacheHits }},
	{Name: "zen_bdd_cache_misses_total", Help: "BDD operation-cache misses.", Field: func(s *Snapshot) *int64 { return &s.BDD.CacheMisses }},
	{Name: "zen_bdd_unique_hits_total", Help: "BDD unique-table hits.", Field: func(s *Snapshot) *int64 { return &s.BDD.UniqueHits }},

	{Field: func(s *Snapshot) *int64 { return &s.SAT.Vars }},
	{Name: "zen_sat_clauses_total", Help: "CNF clauses added across SAT solves.", Field: func(s *Snapshot) *int64 { return &s.SAT.Clauses }},
	{Name: "zen_sat_learned_total", Help: "Learned clauses across SAT solves.", Field: func(s *Snapshot) *int64 { return &s.SAT.Learned }},
	{Name: "zen_sat_decisions_total", Help: "CDCL decisions across SAT solves.", Field: func(s *Snapshot) *int64 { return &s.SAT.Decisions }},
	{Name: "zen_sat_propagations_total", Help: "Unit propagations across SAT solves.", Field: func(s *Snapshot) *int64 { return &s.SAT.Propagations }},
	{Name: "zen_sat_conflicts_total", Help: "Conflicts across SAT solves.", Field: func(s *Snapshot) *int64 { return &s.SAT.Conflicts }},
	{Name: "zen_sat_restarts_total", Help: "Restarts across SAT solves.", Field: func(s *Snapshot) *int64 { return &s.SAT.Restarts }},

	{Name: "zen_portfolio_races_total", Help: "Solver-portfolio races run.", Stable: true, Field: func(s *Snapshot) *int64 { return &s.Portfolio.Races }},
	{Name: "zen_portfolio_wins_total", Help: "Solver-portfolio races by winning strategy.", Label: "strategy", Map: func(s *Snapshot) *map[string]int64 { return &s.Portfolio.WinsBy }},
	{Field: func(s *Snapshot) *int64 { return &s.Portfolio.ClausesImported }},
	{Name: "zen_portfolio_loser_aborts_total", Help: "Losing portfolio strategies torn down after a race.", Field: func(s *Snapshot) *int64 { return &s.Portfolio.LoserAborts }},
	{Name: "zen_portfolio_loser_abort_seconds_total", Help: "Wall time between a race winner's answer and loser teardown.", Field: func(s *Snapshot) *int64 { return &s.Portfolio.LoserAbortNs },
		Value: func(s *Snapshot) float64 { return float64(s.Portfolio.LoserAbortNs) / 1e9 }},

	{Name: "zen_compiles_total", Help: "Model compilations.", Field: func(s *Snapshot) *int64 { return &s.Compile.Compiles }},
	{Name: "zen_compile_instructions_total", Help: "Instructions emitted by model compilation.", Field: func(s *Snapshot) *int64 { return &s.Compile.Instructions }},
	{Field: func(s *Snapshot) *int64 { return &s.Compile.Registers }},

	{Name: "zen_bitslice_plans_total", Help: "Bitslice plan compilations.", Field: func(s *Snapshot) *int64 { return &s.Bitslice.Plans }},
	{Name: "zen_bitslice_plan_ops_total", Help: "Word instructions emitted by bitslice plan compilation.", Field: func(s *Snapshot) *int64 { return &s.Bitslice.PlanOps }},
	{Field: func(s *Snapshot) *int64 { return &s.Bitslice.PlanRegs }},
	{Name: "zen_bitslice_batches_total", Help: "Bitslice 64-lane batch executions.", Field: func(s *Snapshot) *int64 { return &s.Bitslice.Batches }},
	{Name: "zen_bitslice_packets_total", Help: "Inputs evaluated through the bitslice batch engine.", Stable: true, Field: func(s *Snapshot) *int64 { return &s.Bitslice.Packets }},
	{Name: "zen_bitslice_fallbacks_total", Help: "Batch evaluations served by the scalar path (model outside the bitslice fragment).", Field: func(s *Snapshot) *int64 { return &s.Bitslice.Fallbacks }},
	{Name: "zen_bitslice_lanes", Help: "Batch width of the bitslice engine (packets per plan execution).", Kind: KindGauge, Value: func(*Snapshot) float64 { return 64 }},

	{Name: "zen_stateset_transformers_total", Help: "State-set transformers built.", Field: func(s *Snapshot) *int64 { return &s.StateSet.Transformers }},
	{Field: func(s *Snapshot) *int64 { return &s.StateSet.FreshSpaces }},
	{Name: "zen_stateset_forwards_total", Help: "State-set forward applications.", Field: func(s *Snapshot) *int64 { return &s.StateSet.Forwards }},
	{Name: "zen_stateset_reverses_total", Help: "State-set reverse applications.", Field: func(s *Snapshot) *int64 { return &s.StateSet.Reverses }},

	{Name: "zen_fuzz_execs_total", Help: "Differential-fuzzing oracle executions.", Field: func(s *Snapshot) *int64 { return &s.Fuzz.Execs }},
	{Name: "zen_fuzz_divergences_total", Help: "Differential-fuzzing divergences.", Field: func(s *Snapshot) *int64 { return &s.Fuzz.Divergences }},
	{Field: func(s *Snapshot) *int64 { return &s.Fuzz.Shrinks }},

	{Name: "zen_presolve_runs_total", Help: "Abstract-interpretation presolve passes over query DAGs.", Stable: true, Field: func(s *Snapshot) *int64 { return &s.Absint.Presolves }},
	{Name: "zen_presolve_nodes_before_total", Help: "DAG nodes entering presolve.", Field: func(s *Snapshot) *int64 { return &s.Absint.NodesBefore }},
	{Name: "zen_presolve_nodes_after_total", Help: "DAG nodes surviving presolve.", Field: func(s *Snapshot) *int64 { return &s.Absint.NodesAfter }},
	{Name: "zen_presolve_folds_total", Help: "Nodes constant-folded by presolve.", Field: func(s *Snapshot) *int64 { return &s.Absint.Folds }},
	{Name: "zen_presolve_compares_decided_total", Help: "Comparisons decided statically by presolve.", Field: func(s *Snapshot) *int64 { return &s.Absint.ComparesDecided }},
	{Name: "zen_presolve_branches_pruned_total", Help: "Conditional branches pruned by presolve.", Field: func(s *Snapshot) *int64 { return &s.Absint.BranchesPruned }},
	{Name: "zen_presolve_sliced_inputs_total", Help: "Input variables sliced from cones of influence by presolve.", Field: func(s *Snapshot) *int64 { return &s.Absint.SlicedInputs }},
	{Name: "zen_auto_backend_picks_total", Help: "backend:auto resolutions by statically chosen backend.", Stable: true, Label: "backend", Map: func(s *Snapshot) *map[string]int64 { return &s.Absint.AutoPicks }},

	{Name: "zen_lint_models_total", Help: "Models analyzed by zenlint.", Field: func(s *Snapshot) *int64 { return &s.Lint.Models }},
	{Name: "zen_lint_findings_total", Help: "zenlint findings after suppression.", Field: func(s *Snapshot) *int64 { return &s.Lint.Findings }},
	{Field: func(s *Snapshot) *int64 { return &s.Lint.Suppressed }},

	{Field: func(s *Snapshot) *int64 { return &s.Serve.Queries }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.CacheHits }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.CacheMisses }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.Subsumed }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.SnapshotHits }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.Coalesced }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.Shed }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.Cancelled }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.Errors }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.Updates }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.DeltaReused }},
	{Field: func(s *Snapshot) *int64 { return &s.Serve.DeltaReverified }},
}

// counterOffs and mapOffs are the byte offsets within a Snapshot of the
// fields SnapshotMetrics declares additive. merge walks offsets rather
// than calling the row accessors: a Snapshot passed through a func value
// escapes to the heap, and Rec.Add and the Global merge run on every
// analysis.
var counterOffs, mapOffs = snapshotOffsets()

func snapshotOffsets() (counters, maps []uintptr) {
	probe := new(Snapshot)
	base := uintptr(unsafe.Pointer(probe))
	for _, c := range SnapshotMetrics {
		if c.Field != nil {
			counters = append(counters, uintptr(unsafe.Pointer(c.Field(probe)))-base)
		}
		if c.Map != nil {
			maps = append(maps, uintptr(unsafe.Pointer(c.Map(probe)))-base)
		}
	}
	return counters, maps
}

// fieldAt is the field of s at byte offset off.
func fieldAt[F any](s *Snapshot, off uintptr) *F {
	return (*F)(unsafe.Add(unsafe.Pointer(s), off))
}
