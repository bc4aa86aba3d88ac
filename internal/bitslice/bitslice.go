// Package bitslice is Zen's batch evaluation backend: it compiles a
// hash-consed expression DAG into a flat plan of machine-word bitwise
// instructions that evaluates a model on 64 inputs at once.
//
// The representation is transposed ("bitsliced"): where the scalar
// evaluators hold one packet per value, a plan register holds one *bit
// position* across 64 packets — bit i of the register belongs to lane i.
// A 32-bit header field therefore occupies 32 registers, and a single
// `AND` instruction advances all 64 lanes one gate at a time.
//
// The plan is built by sym.Eval, the evaluator that also drives the
// ternary, BDD and SAT backends, over an algebra whose bits are plan
// registers: True and False are the constant registers, each Not, And,
// Or, Xor and Ite becomes one word instruction (folded and
// value-numbered), and Fresh allocates an input register. So the plan
// computes exactly the gates the solvers reason about. Structural
// operators — GetField, Create, WithField, shifts by a constant, Cast,
// Adapt — move register indices and cost zero instructions. If becomes a
// lane-masked select, out = (then & m) | (else &^ m); because evaluation
// is total (no side effects, no partiality), computing both branches is
// semantics-preserving. List operators inside a model are expanded by
// sym into guarded unions of fixed shapes, as for every other backend.
//
// What the plan cannot hold is a list-typed input or result: its length
// differs per lane, and a register file has one fixed shape. Compile
// reports such models with an *UnsupportedError* so callers can fall back
// to the scalar path.
package bitslice

import (
	"fmt"
	"slices"
	"sync"

	"zen-go/internal/core"
	"zen-go/internal/sym"
)

// Lanes is the batch width: one plan execution evaluates this many
// independent inputs, one per bit of a machine word.
const Lanes = 64

// Reserved registers: every plan keeps register 0 all-zeros and register
// 1 all-ones, the algebra's False and True. Constants and shift fill
// compile to references to these, costing no instructions.
const (
	regZero int32 = 0
	regOnes int32 = 1
)

// opcode is a plan instruction operator over whole 64-lane words.
type opcode uint8

const (
	opNot    opcode = iota // dst = ^a
	opAnd                  // dst = a & b
	opOr                   // dst = a | b
	opXor                  // dst = a ^ b
	opAndNot               // dst = a &^ b
	opSelect               // dst = (a&c) | (b&^c) (If: then=a, else=b, mask=c)
)

// inst is one plan instruction. Unused operands are regZero.
type inst struct {
	op           opcode
	dst, a, b, c int32
}

// VarInfo describes one input variable of a plan, in Compile argument
// order.
type VarInfo struct {
	ID   int32
	Name string
	Type *core.Type
}

// Plan is a compiled bitsliced program: bind inputs lane by lane with
// Bind, execute with Run, read results back with Lane. A Plan is
// immutable and safe for concurrent use; each concurrent evaluation needs
// its own register file (NewRegs or AcquireRegs).
type Plan struct {
	insts   []inst
	numRegs int32
	vars    map[int32][]int32 // variable id -> input bit registers
	varInfo []VarInfo
	out     []int32
	outType *core.Type

	regPool sync.Pool
}

// UnsupportedError reports a model the bitslice engine cannot compile
// (a list-typed input or result). Callers should treat it as a
// signal to fall back to scalar evaluation, not as a model bug.
type UnsupportedError struct {
	Reason string
}

func (e *UnsupportedError) Error() string { return "bitslice: unsupported: " + e.Reason }

// IsUnsupported reports whether err marks a model outside the bitslice
// fragment (as opposed to a caller error such as an unbound variable).
func IsUnsupported(err error) bool {
	_, ok := err.(*UnsupportedError)
	return ok
}

// algebra builds a plan: it is the sym.Algebra whose bits are plan
// registers, so sym.Eval — the evaluator behind the BDD, SAT and ternary
// backends — lowers the DAG, and each gate it asks for becomes (at most)
// one instruction. Gates fold against the constant registers and are
// value-numbered, so identical word ops are issued once.
type algebra struct {
	insts []inst
	next  int32
	cse   map[inst]int32
	inv   map[int32]int32 // register -> its bitwise complement, both ways
}

// Compile lowers root into a plan. Every variable root references must
// appear in vars; extra variables are allowed (their input registers are
// simply never read). List operators inside the DAG are supported (sym
// expands them into guarded unions of fixed shapes); list-typed
// variables or results compile to an *UnsupportedError*.
func Compile(root *core.Node, vars ...*core.Node) (*Plan, error) {
	if hasList(root.Type) {
		return nil, &UnsupportedError{Reason: fmt.Sprintf("list-typed result (%s)", root.Type)}
	}
	alg := &algebra{
		next: 2, // regZero, regOnes
		cse:  make(map[inst]int32),
		inv:  make(map[int32]int32),
	}
	plan := &Plan{vars: make(map[int32][]int32)}
	env := make(sym.Env[int32], len(vars))
	for _, v := range vars {
		if v.Op != core.OpVar {
			return nil, fmt.Errorf("bitslice: Compile argument is not a variable (op %s)", v.Op)
		}
		if hasList(v.Type) {
			return nil, &UnsupportedError{Reason: fmt.Sprintf("list-typed variable %s (%s)", v.Name, v.Type)}
		}
		if _, dup := env[v.VarID]; dup {
			continue
		}
		in := sym.Fresh[int32](alg, v.Type, 0, v.Name)
		env[v.VarID] = in.Val
		plan.vars[v.VarID] = flatten(nil, in.Val)
		plan.varInfo = append(plan.varInfo, VarInfo{ID: v.VarID, Name: v.Name, Type: v.Type})
	}
	plan.out = flatten(nil, sym.Eval[int32](alg, root, env))
	if len(plan.out) != root.Type.NumBits(0) {
		// An Adapt between types of different shapes: sym keeps the
		// inner representation, which the result type cannot decode.
		return nil, &UnsupportedError{Reason: fmt.Sprintf("result does not have the shape of %s", root.Type)}
	}
	plan.outType = root.Type
	plan.insts = live(alg.insts, plan.out, alg.next)
	plan.numRegs = alg.next
	plan.regPool.New = func() any { return make([]uint64, plan.numRegs) }
	return plan, nil
}

// live drops, in one backward pass, every instruction no output register
// depends on: gates sym.Eval asked for whose results later folds
// discarded, and complements that And folded into an andnot.
func live(insts []inst, out []int32, numRegs int32) []inst {
	need := make([]bool, numRegs)
	for _, r := range out {
		need[r] = true
	}
	var kept []inst
	for i := len(insts) - 1; i >= 0; i-- {
		if t := insts[i]; need[t.dst] {
			need[t.a], need[t.b], need[t.c] = true, true, true
			kept = append(kept, t)
		}
	}
	slices.Reverse(kept)
	return kept
}

// flatten appends v's registers to out in codec order: booleans one bit,
// bitvectors LSB first, object fields in type order.
func flatten(out []int32, v *sym.Val[int32]) []int32 {
	switch v.Typ.Kind {
	case core.KindBool:
		return append(out, v.Bit)
	case core.KindBV:
		return append(out, v.Bits...)
	}
	for _, f := range v.Fields {
		out = flatten(out, f)
	}
	return out
}

func hasList(t *core.Type) bool {
	if t.Kind == core.KindList {
		return true
	}
	for _, f := range t.Fields {
		if hasList(f.Type) {
			return true
		}
	}
	return false
}

func (c *algebra) alloc() int32 {
	r := c.next
	c.next++
	return r
}

// emit value-numbers and appends one instruction, returning its
// destination register.
func (c *algebra) emit(op opcode, a, b, cc int32) int32 {
	key := inst{op: op, a: a, b: b, c: cc}
	if dst, ok := c.cse[key]; ok {
		return dst
	}
	dst := c.alloc()
	c.insts = append(c.insts, inst{op: op, dst: dst, a: a, b: b, c: cc})
	c.cse[key] = dst
	return dst
}

// sort2 canonicalizes commutative operands so value numbering hits.
func sort2(a, b int32) (int32, int32) {
	if b < a {
		return b, a
	}
	return a, b
}

// --- sym.Algebra ---
//
// The builder already constant-folds at the DAG level; these fold at the
// register level, where comparisons against constants turn xor chains
// into plain complements and mask selects collapse. regZero/regOnes are
// the only registers with statically known contents.

func (c *algebra) True() int32             { return regOnes }
func (c *algebra) False() int32            { return regZero }
func (c *algebra) IsTrue(a int32) bool     { return a == regOnes }
func (c *algebra) IsFalse(a int32) bool    { return a == regZero }
func (c *algebra) Fresh(name string) int32 { return c.alloc() }

func (c *algebra) Not(a int32) int32 {
	switch a {
	case regZero:
		return regOnes
	case regOnes:
		return regZero
	}
	if v, ok := c.inv[a]; ok {
		return v
	}
	dst := c.emit(opNot, a, regZero, regZero)
	c.inv[a] = dst
	c.inv[dst] = a
	return dst
}

func (c *algebra) And(a, b int32) int32 {
	a, b = sort2(a, b)
	switch {
	case a == regZero:
		return regZero
	case a == regOnes:
		return b
	case a == b:
		return a
	}
	// An operand that is a Not's result folds into one andnot on that
	// Not's input. Not allocates its result after its operand, so of a
	// complement pair the higher register is the Not.
	if x, ok := c.inv[b]; ok && x < b {
		return c.andnot(a, x)
	}
	if x, ok := c.inv[a]; ok && x < a {
		return c.andnot(b, x)
	}
	return c.emit(opAnd, a, b, regZero)
}

func (c *algebra) Or(a, b int32) int32 {
	a, b = sort2(a, b)
	switch {
	case a == regZero:
		return b
	case a == regOnes || b == regOnes:
		return regOnes
	case a == b:
		return a
	}
	return c.emit(opOr, a, b, regZero)
}

func (c *algebra) Xor(a, b int32) int32 {
	a, b = sort2(a, b)
	switch {
	case a == b:
		return regZero
	case a == regZero:
		return b
	case a == regOnes:
		return c.Not(b)
	case b == regOnes:
		return c.Not(a)
	}
	return c.emit(opXor, a, b, regZero)
}

func (c *algebra) andnot(a, b int32) int32 { // a &^ b
	switch {
	case a == regZero || b == regOnes || a == b:
		return regZero
	case b == regZero:
		return a
	case a == regOnes:
		return c.Not(b)
	}
	return c.emit(opAndNot, a, b, regZero)
}

// Ite is the lane-masked select: (t & m) | (f &^ m).
func (c *algebra) Ite(m, t, f int32) int32 {
	switch {
	case t == f:
		return t
	case m == regOnes:
		return t
	case m == regZero:
		return f
	case t == regOnes && f == regZero:
		return m
	case t == regZero && f == regOnes:
		return c.Not(m)
	case t == regZero:
		return c.andnot(f, m)
	case f == regZero:
		return c.And(t, m)
	}
	return c.emit(opSelect, t, f, m)
}

// --- Plan accessors ---

// NumOps returns the number of word instructions in the plan — the cost
// of evaluating 64 lanes.
func (p *Plan) NumOps() int { return len(p.insts) }

// NumRegs returns the size of the register file.
func (p *Plan) NumRegs() int { return int(p.numRegs) }

// Vars lists the plan's input variables in Compile argument order.
func (p *Plan) Vars() []VarInfo { return p.varInfo }

// OutType returns the type of the plan's result.
func (p *Plan) OutType() *core.Type { return p.outType }

// NewRegs allocates a fresh register file for this plan.
func (p *Plan) NewRegs() []uint64 { return make([]uint64, p.numRegs) }

// AcquireRegs returns a register file from an internal pool; pair with
// ReleaseRegs on the hot path to avoid per-batch allocation. Lanes not
// re-bound keep stale bits from the previous batch, which is harmless:
// plans are total functions and callers only read back the lanes they
// bound.
func (p *Plan) AcquireRegs() []uint64 { return p.regPool.Get().([]uint64) }

// ReleaseRegs returns a register file to the pool.
func (p *Plan) ReleaseRegs(regs []uint64) { p.regPool.Put(regs) } //nolint:staticcheck // slice header copy is fine here

// Run executes the plan over the register file, evaluating all 64 lanes.
// Inputs must have been bound with Bind; results are read with Lane.
func (p *Plan) Run(regs []uint64) {
	regs[regZero] = 0
	regs[regOnes] = ^uint64(0)
	for i := range p.insts {
		t := &p.insts[i]
		a, b, c := regs[t.a], regs[t.b], regs[t.c]
		var v uint64
		switch t.op {
		case opNot:
			v = ^a
		case opAnd:
			v = a & b
		case opOr:
			v = a | b
		case opXor:
			v = a ^ b
		case opAndNot:
			v = a &^ b
		case opSelect:
			v = (a & c) | (b &^ c)
		}
		regs[t.dst] = v
	}
}
