package bitslice

import "fmt"

// This file exposes a read-only view of a compiled plan for tooling that
// renders plans in other forms — most notably the zen.Codegen emitter,
// which turns a plan into standalone Go source. The execution semantics
// stay in Run; GoExpr must mirror its switch exactly.

// Inst is the exported view of one plan instruction: Dst receives the
// value of the opcode applied to registers A, B and C (unused operands
// are register 0).
type Inst struct {
	op           opcode
	Dst, A, B, C int32
}

// Insts returns a copy of the plan's instruction stream in execution
// order. Registers 0 and 1 are the constant all-zeros and all-ones words;
// instructions never write them.
func (p *Plan) Insts() []Inst {
	out := make([]Inst, len(p.insts))
	for i, t := range p.insts {
		out[i] = Inst{op: t.op, Dst: t.dst, A: t.a, B: t.b, C: t.c}
	}
	return out
}

// VarWords returns the register indices holding the bits of variable id,
// in flattened-type order (booleans one bit, bitvectors LSB-first, object
// fields in declaration order) — the same order the Bind codec uses. The
// second result reports whether the plan knows the variable.
func (p *Plan) VarWords(id int32) ([]int32, bool) {
	ws, ok := p.vars[id]
	return ws, ok
}

// OutWords returns the register indices holding the bits of the plan's
// result, in the same flattened-type order as VarWords.
func (p *Plan) OutWords() []int32 { return p.out }

// GoExpr renders the instruction's right-hand side as a Go expression,
// with reg mapping a register index to its source form (e.g. "r[5]").
// The rendering mirrors the switch in Run operand for operand.
func (i Inst) GoExpr(reg func(int32) string) string {
	a, b, c := reg(i.A), reg(i.B), reg(i.C)
	switch i.op {
	case opNot:
		return "^" + a
	case opAnd:
		return fmt.Sprintf("%s & %s", a, b)
	case opOr:
		return fmt.Sprintf("%s | %s", a, b)
	case opXor:
		return fmt.Sprintf("%s ^ %s", a, b)
	case opAndNot:
		return fmt.Sprintf("%s &^ %s", a, b)
	case opSelect:
		return fmt.Sprintf("(%s & %s) | (%s &^ %s)", a, c, b, c)
	}
	panic(fmt.Sprintf("bitslice: unknown opcode %d", i.op))
}
