// Package sym implements Zen's symbolic evaluation: it translates a core
// expression DAG into symbolic values over an arbitrary boolean algebra.
//
// The same evaluator drives every non-concrete backend in the system — the
// BDD solver, the SAT ("SMT"/bitvector) solver, Kleene ternary simulation,
// and the bitslice plan builder, whose bits are machine-word registers —
// which is the architectural point of the paper: one model, many
// analyses. Composite values use type-driven merging in the style of
// Rosette: objects merge field-wise, bitvectors merge bit-wise, and lists
// are guarded unions keyed by length.
package sym

// Algebra is a boolean algebra with fresh-variable creation. B values are
// algebra-specific: BDD node references, SAT literals, ternary truth
// values, or bitslice plan registers.
type Algebra[B comparable] interface {
	True() B
	False() B
	Not(B) B
	And(B, B) B
	Or(B, B) B
	Xor(B, B) B
	Ite(c, t, f B) B

	// Fresh allocates a new unconstrained variable.
	Fresh(name string) B

	// IsTrue and IsFalse report whether b is the respective constant;
	// they enable short-circuiting during evaluation.
	IsTrue(B) bool
	IsFalse(B) bool
}

// Solver is an Algebra whose formulas can be solved for a model. After
// Solve returns true, BitValue reports the model value of any B returned by
// Fresh.
type Solver[B comparable] interface {
	Algebra[B]
	Solve(constraint B) bool
	BitValue(B) bool
}
