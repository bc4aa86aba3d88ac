package zen

import (
	"zen-go/internal/absint"
	"zen-go/internal/core"
	"zen-go/internal/obs"
)

// WithPresolve enables the abstract-interpretation presolve pass: before
// any solver runs, the query DAG is rewritten under a sound known-bits +
// interval analysis — constants fold, statically-decided comparisons
// disappear, dead branches are pruned, and inputs that can no longer
// reach the root leave the cone of influence. The rewrite is semantics-
// preserving for every concrete input (guarded by the differential fuzz
// oracle's presolve-parity check), so witnesses and verdicts are
// unchanged; only solver work shrinks. See docs/absint.md.
func WithPresolve() Option { return func(o *Options) { o.Presolve = true } }

// WithAutoBackend selects the solver statically, per query: a one-pass
// feature extraction over the (presolved) DAG — live input bits, wide
// multiplications, mid-range shifts, case-nesting depth — feeds a cost
// model distilled from the recorded portfolio win statistics, and the
// query runs on the single backend predicted to win (or the Portfolio
// when the prediction is genuinely uncertain). Equivalent to
// WithBackend(Auto). Picks are recorded in the attached Stats.
func WithAutoBackend() Option { return func(o *Options) { o.Backend = Auto } }

// presolve applies the enabled static passes to a query DAG and returns
// the root to hand to the solver. With Presolve set, the DAG is rewritten
// in place on the package builder (hash-consing shares what survives).
// With Backend == Auto, the backend is resolved here — after
// simplification, so the predictor sees the cone that will actually be
// solved — and o.Backend is overwritten with the pick. rec may be nil.
func (o *Options) presolve(cond *core.Node, rec *obs.Rec) *core.Node {
	if o.Presolve {
		stop := rec.Phase("presolve")
		res := absint.Simplify(build, cond)
		stop()
		cond = res.Root
		rec.Add(obs.Snapshot{Absint: obs.AbsintStats{
			Presolves:       1,
			NodesBefore:     int64(res.Stats.NodesBefore),
			NodesAfter:      int64(res.Stats.NodesAfter),
			Folds:           int64(res.Stats.Folds),
			ComparesDecided: int64(res.Stats.ComparesDecided),
			BranchesPruned:  int64(res.Stats.BranchesPruned),
			SlicedInputs:    int64(res.Stats.SlicedInputs),
		}})
	}
	if o.Backend == Auto {
		choice, reason := absint.Predict(cond, o.ListBound)
		switch choice {
		case absint.ChooseSAT:
			o.Backend = SAT
		case absint.ChoosePortfolio:
			o.Backend = Portfolio
		default:
			o.Backend = BDD
		}
		rec.SetAttr("auto_backend", o.Backend.String())
		rec.SetAttr("auto_reason", reason)
		rec.Add(obs.Snapshot{Absint: obs.AbsintStats{AutoPicks: map[string]int64{o.Backend.String(): 1}}})
	}
	return cond
}
