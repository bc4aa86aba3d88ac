// Package lint is Zen's static model analyzer: a pass framework over the
// core expression DAG with a suite of analyzers that catch modeling bugs
// and solver-cost hazards before any solver runs.
//
// The embedding builds models by running ordinary Go functions over
// symbolic values, so by the time a DAG exists every Go-level decision has
// been taken — what remains is a pure data structure that can be checked
// for well-formedness, unreachable branches, missed sharing, unread
// inputs, and shapes the solver backends are known to choke on
// (costpatterns.go). Each analyzer walks the DAG and reports structured
// diagnostics: a stable code, a severity, the offending node rendered as
// Go source over the Builder API (core.GoExpr), and a fix hint.
//
// The public entry points are zen.Fn.Lint and the zenlint command; the
// companion go/analysis-style source checker for host-language misuse of
// the embedding lives in the zenvet subpackage.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"zen-go/internal/core"
)

// Severity grades a diagnostic.
type Severity int

// Severities, in increasing order of badness.
const (
	SevNone Severity = iota
	SevInfo
	SevWarn
	SevError
)

// String renders the severity as info/warn/error.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return "none"
}

// Diagnostic is one finding: a stable code, where it is in the DAG, and
// what to do about it.
type Diagnostic struct {
	// Code is the stable diagnostic identifier ("ZL201"). Suppressions
	// name codes.
	Code string `json:"code"`
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string `json:"analyzer"`
	// Severity grades the finding. For cost findings this is the maximum
	// across backends; PerBackend has the breakdown.
	Severity Severity `json:"severity"`
	// PerBackend grades the finding per solver backend ("bdd", "sat").
	// Nil for findings that do not depend on the backend.
	PerBackend map[string]Severity `json:"per_backend,omitempty"`
	// Msg states the problem.
	Msg string `json:"msg"`
	// Hint suggests a fix. May be empty.
	Hint string `json:"hint,omitempty"`
	// Expr is the offending node rendered as Go source over the Builder
	// API (core.GoExpr), truncated for display; it locates the finding in
	// the DAG the way file:line locates a source finding.
	Expr string `json:"expr"`
	// Node is the offending DAG node (nil after JSON round-trips).
	Node *core.Node `json:"-"`
}

func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %s", d.Severity, d.Code, d.Msg)
	if d.Expr != "" {
		fmt.Fprintf(&b, "\n    at %s", d.Expr)
	}
	if d.Hint != "" {
		fmt.Fprintf(&b, "\n    hint: %s", d.Hint)
	}
	return b.String()
}

// Analyzer is one static analysis over a model DAG.
type Analyzer struct {
	// Name identifies the analyzer.
	Name string
	// Doc is a one-line description.
	Doc string
	// Codes lists the diagnostic codes the analyzer can report.
	Codes []string
	// Run performs the analysis, reporting through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one model and collects its findings.
type Pass struct {
	// Root is the model's output (or predicate) DAG.
	Root *core.Node
	// Arg is the model's symbolic input variable, when known. Analyzers
	// that reason about inputs (unusedinput) skip models without one.
	Arg *core.Node

	names map[*core.Node]string // free-variable names for GoExpr
	diags *[]Diagnostic
	an    *Analyzer
}

// Reportf records a finding against node n.
func (p *Pass) Reportf(code string, sev Severity, n *core.Node, hint, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Code:     code,
		Analyzer: p.an.Name,
		Severity: sev,
		Msg:      fmt.Sprintf(format, args...),
		Hint:     hint,
		Expr:     p.ExprString(n),
		Node:     n,
	})
}

// ReportCost records a finding for a cost-pattern table row, carrying its
// per-backend severities.
func (p *Pass) ReportCost(pat CostPattern, n *core.Node, format string, args ...any) {
	sev := pat.BDD
	if pat.SAT > sev {
		sev = pat.SAT
	}
	if pat.Bitslice > sev {
		sev = pat.Bitslice
	}
	*p.diags = append(*p.diags, Diagnostic{
		Code:       pat.Code,
		Analyzer:   p.an.Name,
		Severity:   sev,
		PerBackend: map[string]Severity{"bdd": pat.BDD, "sat": pat.SAT, "bitslice": pat.Bitslice},
		Msg:        fmt.Sprintf(format, args...) + " — " + pat.Why,
		Hint:       pat.Hint,
		Expr:       p.ExprString(n),
		Node:       n,
	})
}

// maxExprNodes bounds how large a sub-DAG is rendered fully inline as Go
// source; larger nodes fall back to the depth-limited s-expression form.
// GoExpr prints without locals, so rendering a heavily shared DAG inline
// can be exponentially larger than the DAG itself.
const maxExprNodes = 48

// maxExprLen truncates rendered expressions for display.
const maxExprLen = 200

// ExprString renders a node as a Go expression over the Builder API when
// it is small enough, falling back to the s-expression printer.
func (p *Pass) ExprString(n *core.Node) string {
	if n == nil {
		return ""
	}
	var s string
	if core.Measure(n).Nodes <= maxExprNodes {
		s = core.GoExpr(n, p.names)
	} else {
		s = n.String()
	}
	if len(s) > maxExprLen {
		s = s[:maxExprLen] + "…"
	}
	return s
}

// varNames collects a Go identifier for every variable in the DAG,
// including list-case binders, so GoExpr can render any sub-DAG without
// panicking on a free variable. Names are uniqued by variable ID.
func varNames(root *core.Node) map[*core.Node]string {
	names := make(map[*core.Node]string)
	seen := make(map[*core.Node]bool)
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		if n.Op == core.OpVar {
			base := sanitizeIdent(n.Name)
			names[n] = fmt.Sprintf("%s_%d", base, n.VarID)
		}
		for _, k := range n.Kids {
			walk(k)
		}
		for _, k := range n.Bound {
			walk(k)
		}
	}
	walk(root)
	return names
}

func sanitizeIdent(s string) string {
	if s == "" {
		return "v"
	}
	var b strings.Builder
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Analyzers returns the full analyzer suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WellFormed,
		AbsRange,
		DupSubtree,
		UnusedInput,
		CostAdvisor,
	}
}

// Run analyzes the DAG rooted at root with the given analyzers (all of
// them when none are given). arg is the model's symbolic input variable,
// or nil. Findings are ordered by severity (most severe first), then code.
func Run(root, arg *core.Node, analyzers ...*Analyzer) []Diagnostic {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	names := varNames(root)
	var diags []Diagnostic
	for _, a := range analyzers {
		p := &Pass{Root: root, Arg: arg, names: names, diags: &diags, an: a}
		a.Run(p)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Severity != diags[j].Severity {
			return diags[i].Severity > diags[j].Severity
		}
		return diags[i].Code < diags[j].Code
	})
	return diags
}

// Filter returns the diagnostics whose codes are not in allow. It is the
// suppression primitive shared by the registry and the zenlint command.
func Filter(diags []Diagnostic, allow []string) (kept, suppressed []Diagnostic) {
	if len(allow) == 0 {
		return diags, nil
	}
	allowed := make(map[string]bool, len(allow))
	for _, c := range allow {
		allowed[c] = true
	}
	for _, d := range diags {
		if allowed[d.Code] {
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	return kept, suppressed
}

// Stale returns the allow-list codes that suppressed nothing: the model
// no longer triggers them, so each entry only hides future findings. It
// is the registry-level counterpart of zenvet's ZV005 source check.
// Order follows the allow list; duplicates are reported once.
func Stale(allow []string, suppressed []Diagnostic) []string {
	if len(allow) == 0 {
		return nil
	}
	hit := make(map[string]bool, len(suppressed))
	for _, d := range suppressed {
		hit[d.Code] = true
	}
	var stale []string
	seen := make(map[string]bool, len(allow))
	for _, c := range allow {
		if !hit[c] && !seen[c] {
			seen[c] = true
			stale = append(stale, c)
		}
	}
	return stale
}
