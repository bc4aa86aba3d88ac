package core

import (
	"fmt"
	"sync"
	"weak"
)

// Op identifies an expression construct of the Zen abstract syntax
// (Figure 9 of the paper).
type Op uint8

// Expression operators.
const (
	OpConst Op = iota // scalar constant (bool or bitvector)
	OpVar             // symbolic input variable (bool or bitvector leaf)

	OpNot
	OpAnd
	OpOr

	OpEq // any type
	OpLt // bitvectors, signedness from operand type

	OpAdd
	OpSub
	OpMul
	OpBAnd
	OpBOr
	OpBXor
	OpBNot
	OpShl // shift left by constant Amount
	OpShr // logical shift right by constant Amount

	OpIf

	OpCreate    // object creation; kids are field values in type order
	OpGetField  // kids[0] = object; Index selects the field
	OpWithField // kids[0] = object, kids[1] = new field value; Index selects

	OpListNil  // empty list
	OpListCons // kids[0] = head, kids[1] = tail
	OpListCase // kids[0] = list, kids[1] = empty branch, kids[2] = cons branch
	// For OpListCase, Bound[0] and Bound[1] are the OpVar nodes bound to
	// the head and tail within the cons branch.

	OpAdapt // type coercion marker for extensibility (§5 of the paper)

	OpCast // bitvector width conversion: truncate or (sign-)extend
)

var opNames = map[Op]string{
	OpConst: "const", OpVar: "var", OpNot: "not", OpAnd: "and", OpOr: "or",
	OpEq: "eq", OpLt: "lt", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpBAnd: "band", OpBOr: "bor", OpBXor: "bxor", OpBNot: "bnot",
	OpShl: "shl", OpShr: "shr", OpIf: "if", OpCreate: "create",
	OpGetField: "get", OpWithField: "with", OpListNil: "nil",
	OpListCons: "cons", OpListCase: "case", OpAdapt: "adapt",
	OpCast: "cast",
}

func (o Op) String() string { return opNames[o] }

// Node is a hash-consed expression node. Nodes must be created through a
// Builder; two structurally identical expressions built by the same Builder
// are the same pointer, so pointer comparison is structural equality.
type Node struct {
	Op   Op
	Type *Type
	Kids []*Node

	// Payload fields (which are meaningful depends on Op):
	BVal   bool    // OpConst bool
	UVal   uint64  // OpConst bitvector (raw bits, masked to width)
	Name   string  // OpVar: diagnostic name
	VarID  int32   // OpVar: unique variable identifier
	Index  int     // OpGetField/OpWithField field index; OpShl/OpShr amount
	Bound  []*Node // OpListCase: bound head/tail variables
	nodeID int64   // unique per builder, used for hashing
}

// ID returns the node's builder-unique identity.
func (n *Node) ID() int64 { return n.nodeID }

// Builder creates and hash-conses nodes. It is safe for concurrent use.
//
// The table does not keep nodes alive: it holds the nodes interned since
// the last sweep strongly and older ones weakly. Once as many nodes have
// been interned since the last sweep as survived it, a sweep turns the
// young ones weak and drops the entries the collector has freed, so a
// long-running process retains only the DAGs it still references. While
// a node is reachable, building an equal structure returns that same
// pointer.
type Builder struct {
	mu      sync.Mutex
	table   map[uint64]slot
	spill   map[uint64][]slot // hash collisions, rare
	young   int               // nodes interned since the last sweep
	old     int               // weak entries that survived the last sweep
	nextID  int64
	nextVar int32
}

// slot is one table entry: a young node, or a weak pointer to an old one.
type slot struct {
	n *Node
	w weak.Pointer[Node]
}

// node returns the entry's node, or nil once it has been freed.
func (s slot) node() *Node {
	if s.n != nil {
		return s.n
	}
	return s.w.Value()
}

// minSweep is the young generation size below which no sweep runs, so
// small builders never pay for one.
const minSweep = 1 << 16

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{table: make(map[uint64]slot, 1024), spill: make(map[uint64][]slot)}
}

func (b *Builder) hash(op Op, t *Type, kids []*Node, bval bool, uval uint64, varID int32, index int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(op))
	for _, c := range t.String() {
		mix(uint64(c))
	}
	for _, k := range kids {
		mix(uint64(k.nodeID))
	}
	if bval {
		mix(1)
	}
	mix(uval)
	mix(uint64(varID))
	mix(uint64(index))
	return h
}

func sameNode(n *Node, op Op, t *Type, kids []*Node, bval bool, uval uint64, varID int32, index int) bool {
	if n.Op != op || !n.Type.Same(t) || len(n.Kids) != len(kids) {
		return false
	}
	for i, k := range kids {
		if n.Kids[i] != k {
			return false
		}
	}
	return n.BVal == bval && n.UVal == uval && n.VarID == varID && n.Index == index
}

// intern returns the canonical node for the given shape, creating it if
// needed. Nodes with bound variables (OpListCase) are not interned because
// their binders are unique.
func (b *Builder) intern(op Op, t *Type, kids []*Node, bval bool, uval uint64, varID int32, index int) *Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	h := b.hash(op, t, kids, bval, uval, varID, index)
	first, taken := b.table[h]
	if taken {
		if n := first.node(); n == nil {
			taken = false // freed: the slot can be reused
		} else if sameNode(n, op, t, kids, bval, uval, varID, index) {
			return n
		}
	}
	for _, s := range b.spill[h] {
		if n := s.node(); n != nil && sameNode(n, op, t, kids, bval, uval, varID, index) {
			return n
		}
	}
	b.nextID++
	n := &Node{Op: op, Type: t, Kids: kids, BVal: bval, UVal: uval,
		VarID: varID, Index: index, nodeID: b.nextID}
	if taken {
		b.spill[h] = append(b.spill[h], slot{n: n})
	} else {
		b.table[h] = slot{n: n}
	}
	if b.young++; b.young >= max(b.old, minSweep) {
		b.sweep()
	}
	return n
}

// Sweep runs a sweep now instead of when the young generation has grown:
// nodes that only the table referenced can then be freed by the next
// garbage collection.
func (b *Builder) Sweep() {
	b.mu.Lock()
	b.sweep()
	b.mu.Unlock()
}

// sweep makes the young entries weak and drops the freed ones. The
// caller holds b.mu.
func (b *Builder) sweep() {
	b.young, b.old = 0, 0
	// age returns the entry after the sweep; false if its node was freed.
	age := func(s slot) (slot, bool) {
		switch {
		case s.n != nil:
			return slot{w: weak.Make(s.n)}, true
		case s.w.Value() == nil:
			return s, false
		}
		b.old++
		return s, true
	}
	for h, s := range b.table {
		if s, ok := age(s); ok {
			b.table[h] = s
		} else {
			delete(b.table, h)
		}
	}
	for h, ss := range b.spill {
		keep := ss[:0]
		for _, s := range ss {
			if s, ok := age(s); ok {
				keep = append(keep, s)
			}
		}
		if clear(ss[len(keep):]); len(keep) == 0 {
			delete(b.spill, h)
		} else {
			b.spill[h] = keep
		}
	}
}

// fresh allocates a non-interned node (used for binders and case nodes).
func (b *Builder) fresh(n *Node) *Node {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	n.nodeID = b.nextID
	return n
}

// ReserveVars advances the builder's variable counter past id, so
// binders allocated while rebuilding a DAG from another builder cannot
// collide with variable ids minted elsewhere.
func (b *Builder) ReserveVars(id int32) {
	b.mu.Lock()
	if b.nextVar < id {
		b.nextVar = id
	}
	b.mu.Unlock()
}

// NumNodes returns the number of nodes ever interned (and variables ever
// allocated) by this builder, including nodes since freed: a rough
// measure of model-building work, not of what is live.
func (b *Builder) NumNodes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.nextID
}

// --- Leaf constructors ---

// BoolConst returns the boolean constant v.
func (b *Builder) BoolConst(v bool) *Node {
	return b.intern(OpConst, Bool(), nil, v, 0, 0, 0)
}

// BVConst returns the bitvector constant v of type t (masked to width).
func (b *Builder) BVConst(t *Type, v uint64) *Node {
	mustBV(t)
	return b.intern(OpConst, t, nil, false, t.Mask(v), 0, 0)
}

// Var returns a fresh symbolic variable of any type. Evaluators bind the
// variable in their environments; symbolic backends expand composite
// variables into structured collections of decision bits (sym.Fresh).
func (b *Builder) Var(t *Type, name string) *Node {
	b.mu.Lock()
	b.nextVar++
	id := b.nextVar
	b.nextID++
	n := &Node{Op: OpVar, Type: t, Name: name, VarID: id, nodeID: b.nextID}
	b.mu.Unlock()
	return n
}

func mustBV(t *Type) {
	if t.Kind != KindBV {
		panic("core: operation requires bitvector operands, got " + t.String())
	}
}

func mustSame(a, b *Type) {
	if !a.Same(b) {
		panic(fmt.Sprintf("core: type mismatch: %s vs %s", a, b))
	}
}

// --- Boolean operators (with local simplification) ---

// Not returns the negation of x.
func (b *Builder) Not(x *Node) *Node {
	mustSame(x.Type, Bool())
	if x.Op == OpConst {
		return b.BoolConst(!x.BVal)
	}
	if x.Op == OpNot {
		return x.Kids[0]
	}
	return b.intern(OpNot, Bool(), []*Node{x}, false, 0, 0, 0)
}

// And returns the conjunction of x and y.
func (b *Builder) And(x, y *Node) *Node {
	mustSame(x.Type, Bool())
	mustSame(y.Type, Bool())
	if x.Op == OpConst {
		if x.BVal {
			return y
		}
		return x
	}
	if y.Op == OpConst {
		if y.BVal {
			return x
		}
		return y
	}
	if x == y {
		return x
	}
	return b.intern(OpAnd, Bool(), []*Node{x, y}, false, 0, 0, 0)
}

// Or returns the disjunction of x and y.
func (b *Builder) Or(x, y *Node) *Node {
	mustSame(x.Type, Bool())
	mustSame(y.Type, Bool())
	if x.Op == OpConst {
		if x.BVal {
			return x
		}
		return y
	}
	if y.Op == OpConst {
		if y.BVal {
			return y
		}
		return x
	}
	if x == y {
		return x
	}
	return b.intern(OpOr, Bool(), []*Node{x, y}, false, 0, 0, 0)
}

// --- Comparisons ---

// Eq returns the structural equality of x and y (any type).
func (b *Builder) Eq(x, y *Node) *Node {
	mustSame(x.Type, y.Type)
	if x == y {
		return b.BoolConst(true)
	}
	if x.Op == OpConst && y.Op == OpConst {
		if x.Type.Kind == KindBool {
			return b.BoolConst(x.BVal == y.BVal)
		}
		return b.BoolConst(x.UVal == y.UVal)
	}
	// Push equality-with-a-constant through conditionals: for if-chains
	// ending in constants (line tracking, match indices) the comparison
	// folds per branch, turning an n-deep chain over k-bit values into a
	// boolean chain — the shape custom tools compute directly.
	if y.Op == OpConst && x.Op == OpIf {
		return b.If(x.Kids[0], b.Eq(x.Kids[1], y), b.Eq(x.Kids[2], y))
	}
	if x.Op == OpConst && y.Op == OpIf {
		return b.If(y.Kids[0], b.Eq(x, y.Kids[1]), b.Eq(x, y.Kids[2]))
	}
	return b.intern(OpEq, Bool(), []*Node{x, y}, false, 0, 0, 0)
}

// Lt returns x < y with the signedness of the operand type.
func (b *Builder) Lt(x, y *Node) *Node {
	mustBV(x.Type)
	mustSame(x.Type, y.Type)
	if x == y {
		return b.BoolConst(false)
	}
	if x.Op == OpConst && y.Op == OpConst {
		t := x.Type
		if t.Signed {
			return b.BoolConst(t.ToSigned(x.UVal) < t.ToSigned(y.UVal))
		}
		return b.BoolConst(x.UVal < y.UVal)
	}
	return b.intern(OpLt, Bool(), []*Node{x, y}, false, 0, 0, 0)
}

// --- Arithmetic and bitwise operators ---

func (b *Builder) binBV(op Op, x, y *Node, fold func(t *Type, a, c uint64) uint64) *Node {
	mustBV(x.Type)
	mustSame(x.Type, y.Type)
	if x.Op == OpConst && y.Op == OpConst {
		return b.BVConst(x.Type, fold(x.Type, x.UVal, y.UVal))
	}
	return b.intern(op, x.Type, []*Node{x, y}, false, 0, 0, 0)
}

// Add returns x + y with wraparound semantics.
func (b *Builder) Add(x, y *Node) *Node {
	if y.Op == OpConst && y.UVal == 0 {
		return x
	}
	if x.Op == OpConst && x.UVal == 0 {
		return y
	}
	return b.binBV(OpAdd, x, y, func(t *Type, a, c uint64) uint64 { return t.Mask(a + c) })
}

// Sub returns x - y with wraparound semantics.
func (b *Builder) Sub(x, y *Node) *Node {
	if y.Op == OpConst && y.UVal == 0 {
		return x
	}
	return b.binBV(OpSub, x, y, func(t *Type, a, c uint64) uint64 { return t.Mask(a - c) })
}

// Mul returns x * y with wraparound semantics.
func (b *Builder) Mul(x, y *Node) *Node {
	return b.binBV(OpMul, x, y, func(t *Type, a, c uint64) uint64 { return t.Mask(a * c) })
}

// BAnd returns the bitwise conjunction of x and y.
func (b *Builder) BAnd(x, y *Node) *Node {
	if x == y {
		return x
	}
	return b.binBV(OpBAnd, x, y, func(t *Type, a, c uint64) uint64 { return a & c })
}

// BOr returns the bitwise disjunction of x and y.
func (b *Builder) BOr(x, y *Node) *Node {
	if x == y {
		return x
	}
	return b.binBV(OpBOr, x, y, func(t *Type, a, c uint64) uint64 { return a | c })
}

// BXor returns the bitwise exclusive-or of x and y.
func (b *Builder) BXor(x, y *Node) *Node {
	return b.binBV(OpBXor, x, y, func(t *Type, a, c uint64) uint64 { return a ^ c })
}

// BNot returns the bitwise complement of x.
func (b *Builder) BNot(x *Node) *Node {
	mustBV(x.Type)
	if x.Op == OpConst {
		return b.BVConst(x.Type, ^x.UVal)
	}
	if x.Op == OpBNot {
		return x.Kids[0]
	}
	return b.intern(OpBNot, x.Type, []*Node{x}, false, 0, 0, 0)
}

// Shl returns x shifted left by the constant amount.
func (b *Builder) Shl(x *Node, amount int) *Node {
	mustBV(x.Type)
	if amount < 0 {
		panic("core: negative shift")
	}
	if amount == 0 {
		return x
	}
	if x.Op == OpConst {
		if amount >= x.Type.Width {
			return b.BVConst(x.Type, 0)
		}
		return b.BVConst(x.Type, x.UVal<<uint(amount))
	}
	return b.intern(OpShl, x.Type, []*Node{x}, false, 0, 0, amount)
}

// Shr returns x logically shifted right by the constant amount.
func (b *Builder) Shr(x *Node, amount int) *Node {
	mustBV(x.Type)
	if amount < 0 {
		panic("core: negative shift")
	}
	if amount == 0 {
		return x
	}
	if x.Op == OpConst {
		if amount >= x.Type.Width {
			return b.BVConst(x.Type, 0)
		}
		return b.BVConst(x.Type, x.Type.Mask(x.UVal)>>uint(amount))
	}
	return b.intern(OpShr, x.Type, []*Node{x}, false, 0, 0, amount)
}

// --- Control flow ---

// If returns "if c then t else f". The branches must share a type.
func (b *Builder) If(c, t, f *Node) *Node {
	mustSame(c.Type, Bool())
	mustSame(t.Type, f.Type)
	if c.Op == OpConst {
		if c.BVal {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	// if c then true else f  ==  c or f   (and dual simplifications)
	if t.Type.Kind == KindBool {
		if t.Op == OpConst && f.Op == OpConst {
			if t.BVal && !f.BVal {
				return c
			}
			if !t.BVal && f.BVal {
				return b.Not(c)
			}
		}
		if t.Op == OpConst {
			if t.BVal {
				return b.Or(c, f)
			}
			return b.And(b.Not(c), f)
		}
		if f.Op == OpConst {
			if f.BVal {
				return b.Or(b.Not(c), t)
			}
			return b.And(c, t)
		}
	}
	return b.intern(OpIf, t.Type, []*Node{c, t, f}, false, 0, 0, 0)
}

// --- Objects ---

// Create builds an object of type t from field values given in field order.
func (b *Builder) Create(t *Type, fields ...*Node) *Node {
	if t.Kind != KindObject {
		panic("core: Create requires an object type")
	}
	if len(fields) != len(t.Fields) {
		panic(fmt.Sprintf("core: Create %s: got %d fields, want %d", t, len(fields), len(t.Fields)))
	}
	for i, f := range fields {
		mustSame(f.Type, t.Fields[i].Type)
	}
	return b.intern(OpCreate, t, fields, false, 0, 0, 0)
}

// GetField projects the i-th field out of object o.
func (b *Builder) GetField(o *Node, i int) *Node {
	if o.Type.Kind != KindObject {
		panic("core: GetField on non-object " + o.Type.String())
	}
	if i < 0 || i >= len(o.Type.Fields) {
		panic("core: GetField index out of range")
	}
	if o.Op == OpCreate {
		return o.Kids[i]
	}
	if o.Op == OpWithField {
		if o.Index == i {
			return o.Kids[1]
		}
		return b.GetField(o.Kids[0], i)
	}
	if o.Op == OpIf {
		// Push projection through conditionals: the field of a merged
		// object is the merge of the fields. Hash-consing bounds the
		// blowup, and downstream analyses (dataflow ordering, symbolic
		// evaluation) see much simpler shapes.
		return b.If(o.Kids[0], b.GetField(o.Kids[1], i), b.GetField(o.Kids[2], i))
	}
	return b.intern(OpGetField, o.Type.Fields[i].Type, []*Node{o}, false, 0, 0, i)
}

// WithField returns o with the i-th field replaced by v.
func (b *Builder) WithField(o *Node, i int, v *Node) *Node {
	if o.Type.Kind != KindObject {
		panic("core: WithField on non-object " + o.Type.String())
	}
	if i < 0 || i >= len(o.Type.Fields) {
		panic("core: WithField index out of range")
	}
	mustSame(v.Type, o.Type.Fields[i].Type)
	if o.Op == OpCreate {
		kids := append([]*Node(nil), o.Kids...)
		kids[i] = v
		return b.Create(o.Type, kids...)
	}
	return b.intern(OpWithField, o.Type, []*Node{o, v}, false, 0, 0, i)
}

// --- Lists ---

// ListNil returns the empty list of the given list type.
func (b *Builder) ListNil(t *Type) *Node {
	if t.Kind != KindList {
		panic("core: ListNil requires a list type")
	}
	return b.intern(OpListNil, t, nil, false, 0, 0, 0)
}

// ListCons prepends head to tail.
func (b *Builder) ListCons(head, tail *Node) *Node {
	if tail.Type.Kind != KindList {
		panic("core: ListCons tail must be a list")
	}
	mustSame(head.Type, tail.Type.Elem)
	return b.intern(OpListCons, tail.Type, []*Node{head, tail}, false, 0, 0, 0)
}

// ListCase eliminates a list: mkBranches receives fresh variables bound to
// the head and tail and must return the cons branch; empty is the branch
// for the empty list. Both branches must share a result type.
func (b *Builder) ListCase(list, empty *Node, mkCons func(head, tail *Node) *Node) *Node {
	if list.Type.Kind != KindList {
		panic("core: ListCase requires a list")
	}
	switch list.Op {
	case OpListNil:
		return empty
	case OpListCons:
		return mkCons(list.Kids[0], list.Kids[1])
	}
	headVar := b.boundVar(list.Type.Elem, "case.head")
	tailVar := b.boundVar(list.Type, "case.tail")
	cons := mkCons(headVar, tailVar)
	mustSame(empty.Type, cons.Type)
	n := b.fresh(&Node{
		Op:    OpListCase,
		Type:  empty.Type,
		Kids:  []*Node{list, empty, cons},
		Bound: []*Node{headVar, tailVar},
	})
	return n
}

// boundVar allocates a binder variable of any type (only legal inside
// ListCase branches; evaluators bind it in their environments).
func (b *Builder) boundVar(t *Type, name string) *Node {
	b.mu.Lock()
	b.nextVar++
	id := b.nextVar
	b.nextID++
	n := &Node{Op: OpVar, Type: t, Name: name, VarID: id, nodeID: b.nextID}
	b.mu.Unlock()
	return n
}

// Cast converts a bitvector to another width: truncation when narrowing,
// sign-extension when the source type is signed, zero-extension otherwise.
func (b *Builder) Cast(x *Node, to *Type) *Node {
	mustBV(x.Type)
	mustBV(to)
	if x.Type.Width == to.Width && x.Type.Signed == to.Signed {
		return x
	}
	if x.Op == OpConst {
		v := x.UVal
		if x.Type.Signed {
			v = uint64(x.Type.ToSigned(v))
		}
		return b.BVConst(to, v)
	}
	return b.intern(OpCast, to, []*Node{x}, false, 0, 0, 0)
}

// Adapt marks a coercion of e to type t; evaluators treat it as identity on
// the underlying representation. It exists so new user-facing types can be
// implemented in terms of existing ones (§5).
func (b *Builder) Adapt(t *Type, e *Node) *Node {
	return b.intern(OpAdapt, t, []*Node{e}, false, 0, 0, 0)
}
