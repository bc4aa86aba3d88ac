package zen

import (
	"runtime"
	"sort"
	"sync"

	"zen-go/internal/core"
	"zen-go/internal/lint"
	"zen-go/internal/obs"
)

// Diagnostic is one static-analysis finding over a model DAG. See
// internal/lint for the analyzer suite and the diagnostic codes.
type Diagnostic = lint.Diagnostic

// Severity grades a Diagnostic.
type Severity = lint.Severity

// Severities, in increasing order of badness.
const (
	SevInfo  = lint.SevInfo
	SevWarn  = lint.SevWarn
	SevError = lint.SevError
)

// Lint runs the static analyzer suite over the function's DAG: type and
// scope well-formedness, dead branches, missed sharing, unread input
// fields, and solver-cost hazards. It needs no solver and is cheap
// relative to any Find, so it is worth running before expensive queries —
// its findings explain many "the solver hangs" and "Verify is vacuously
// true" situations. Findings are ordered most severe first.
func (fn *Fn[I, O]) Lint(opts ...Option) []Diagnostic {
	o := fn.options(opts)
	rec := obs.Begin(o.Stats, o.Tracer, "lint", "lint")
	defer rec.End()
	o.measureDAG(rec, fn.out.n)
	return lintDAG(rec, fn.out.n, fn.arg.n)
}

// Lint runs the static analyzer suite over the two-argument function's
// DAG. Unused-input analysis runs once per argument.
func (fn *Fn2[A, B, O]) Lint(opts ...Option) []Diagnostic {
	o := buildOptions(opts)
	rec := obs.Begin(o.Stats, o.Tracer, "lint", "lint")
	defer rec.End()
	o.measureDAG(rec, fn.out.n)
	return lintDAG(rec, fn.out.n, fn.argA.n, fn.argB.n)
}

func lintDAG(rec *obs.Rec, root *core.Node, arg *core.Node, more ...*core.Node) []Diagnostic {
	stop := rec.Phase("lint")
	diags := lint.Run(root, arg)
	for _, a := range more {
		diags = append(diags, lint.Run(root, a, lint.UnusedInput)...)
	}
	stop()
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity > diags[j].Severity
		}
		return diags[i].Code < diags[j].Code
	})
	rec.Add(obs.Snapshot{Lint: obs.LintStats{Models: 1, Findings: int64(len(diags))}})
	return diags
}

// Lintable is any model that can run the static analyzer suite; every
// *Fn[I, O] and *Fn2[A, B, O] is. It is the registration currency of
// RegisterModel.
type Lintable interface {
	Lint(opts ...Option) []Diagnostic
}

// RegisteredModel is one entry in the model registry: a name, a lazy
// constructor (building a model DAG can be expensive, so it runs only when
// the model is actually linted), and diagnostic codes accepted as known
// for this model. Allow entries are the DAG-level counterpart of the
// //lint:allow source comments honored by zenvet.
type RegisteredModel struct {
	Name  string
	Build func() Lintable
	Allow []string
	// File and Line locate the RegisterModel call site, so lint findings
	// can be addressed back to the defining source (wildcat-style).
	File string
	Line int
}

var (
	modelsMu sync.Mutex
	models   []RegisteredModel
)

// RegisterModel adds a named model to the registry scanned by the zenlint
// command. Call it from an init function of the package defining the
// model:
//
//	func init() {
//		zen.RegisterModel("acl/allows", func() zen.Lintable {
//			return zen.Func(acl.Allows)
//		})
//	}
//
// Trailing arguments are diagnostic codes (e.g. "ZL501") suppressed for
// this model. RegisterModel panics on a duplicate name: registry names
// must be stable, they are how zenlint findings are addressed.
func RegisterModel(name string, build func() Lintable, allow ...string) {
	_, file, line, _ := runtime.Caller(1)
	modelsMu.Lock()
	defer modelsMu.Unlock()
	for _, m := range models {
		if m.Name == name {
			panic("zen: model registered twice: " + name)
		}
	}
	models = append(models, RegisteredModel{Name: name, Build: build, Allow: allow, File: file, Line: line})
}

// RegisteredModels returns the registry sorted by name.
func RegisteredModels() []RegisteredModel {
	modelsMu.Lock()
	defer modelsMu.Unlock()
	out := append([]RegisteredModel(nil), models...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelReport is the lint outcome for one registered model.
type ModelReport struct {
	Name string `json:"name"`
	// Findings are the diagnostics kept after the model's allow-list.
	Findings []Diagnostic `json:"findings,omitempty"`
	// Suppressed are the diagnostics filtered by the allow-list.
	Suppressed []Diagnostic `json:"suppressed,omitempty"`
	// StaleAllows are allow-list codes that suppressed nothing: the
	// model no longer triggers them, so each entry only hides future
	// findings. The registry-level counterpart of zenvet's ZV005.
	StaleAllows []string `json:"stale_allows,omitempty"`
}

// LintRegistered builds and lints every registered model, applying each
// model's allow-list. It is the engine of the zenlint command.
func LintRegistered(opts ...Option) []ModelReport {
	var reports []ModelReport
	for _, m := range RegisteredModels() {
		diags := m.Build().Lint(opts...)
		kept, suppressed := lint.Filter(diags, m.Allow)
		if len(suppressed) > 0 {
			snap := obs.Snapshot{Lint: obs.LintStats{Suppressed: int64(len(suppressed))}}
			obs.Global().Merge(&snap)
			if o := buildOptions(opts); o.Stats != nil {
				o.Stats.Merge(&snap)
			}
		}
		reports = append(reports, ModelReport{
			Name:        m.Name,
			Findings:    kept,
			Suppressed:  suppressed,
			StaleAllows: lint.Stale(m.Allow, suppressed),
		})
	}
	return reports
}
