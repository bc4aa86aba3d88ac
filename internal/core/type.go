// Package core implements the Zen intermediate language: its type system
// and its hash-consed expression DAG (the abstract syntax of Figure 9 in the
// paper). The public zen package wraps this with a typed, generics-based
// façade; analysis backends (interp, sym, stateset, testgen, bitslice, absint)
// consume the DAG produced here.
package core

import (
	"fmt"
	"strings"
)

// Kind classifies Zen types.
type Kind uint8

// Type kinds.
const (
	KindBool Kind = iota
	KindBV        // fixed-width bitvector (byte..ulong in the paper)
	KindObject
	KindList
)

// Field is a named, typed member of an object type.
type Field struct {
	Name string
	Type *Type
}

// Type describes a Zen type. Types are immutable after construction and
// compared structurally via their String form; use the constructors below.
type Type struct {
	Kind   Kind
	Width  int  // KindBV: number of bits (1..64)
	Signed bool // KindBV: signed comparison/ordering semantics
	Fields []Field
	Elem   *Type // KindList
	// TypeName is an optional human-readable name for object types (the Go
	// struct name); it does not affect structural identity.
	TypeName string

	str string // cached structural string
}

var boolType = &Type{Kind: KindBool, str: "bool"}

// Bool returns the boolean type.
func Bool() *Type { return boolType }

var bvCache [65][2]*Type

// BV returns the bitvector type of the given width and signedness.
// Width must be between 1 and 64.
func BV(width int, signed bool) *Type {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("core: invalid bitvector width %d", width))
	}
	idx := 0
	if signed {
		idx = 1
	}
	if t := bvCache[width][idx]; t != nil {
		return t
	}
	s := "u"
	if signed {
		s = "i"
	}
	t := &Type{Kind: KindBV, Width: width, Signed: signed, str: fmt.Sprintf("%sbv%d", s, width)}
	bvCache[width][idx] = t
	return t
}

// Object returns an object type with the given ordered fields.
func Object(name string, fields ...Field) *Type {
	var b strings.Builder
	b.WriteByte('{')
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Name)
		b.WriteByte(':')
		b.WriteString(f.Type.String())
	}
	b.WriteByte('}')
	return &Type{Kind: KindObject, Fields: fields, TypeName: name, str: b.String()}
}

// List returns the list type with the given element type.
func List(elem *Type) *Type {
	return &Type{Kind: KindList, Elem: elem, str: "list[" + elem.String() + "]"}
}

// Option returns the option type over elem, encoded as the paper describes:
// an object with a HasValue flag and a Value field.
func Option(elem *Type) *Type {
	return Object("Option",
		Field{Name: "HasValue", Type: Bool()},
		Field{Name: "Value", Type: elem})
}

// Pair returns a two-tuple type, encoded as an object with Item1/Item2
// fields (as in the paper's C# embedding).
func Pair(a, b *Type) *Type {
	return Object("Pair",
		Field{Name: "Item1", Type: a},
		Field{Name: "Item2", Type: b})
}

// String returns the structural representation of the type. Two types are
// interchangeable exactly when their String values are equal.
func (t *Type) String() string { return t.str }

// Same reports structural equality of types.
func (t *Type) Same(o *Type) bool {
	return t == o || t.str == o.str
}

// FieldIndex returns the index of the named field, or -1.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// NumBits returns the number of boolean decision bits needed to represent a
// value of this type symbolically, excluding list length bookkeeping. Lists
// are counted with the given bound on length.
func (t *Type) NumBits(listBound int) int {
	switch t.Kind {
	case KindBool:
		return 1
	case KindBV:
		return t.Width
	case KindObject:
		n := 0
		for _, f := range t.Fields {
			n += f.Type.NumBits(listBound)
		}
		return n
	case KindList:
		return listBound + listBound*t.Elem.NumBits(listBound)
	}
	panic("core: unknown kind")
}

// MaxUint returns the largest unsigned value representable in a bitvector
// of this type's width.
func (t *Type) MaxUint() uint64 {
	if t.Width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(t.Width)) - 1
}

// Mask truncates v to the type's width.
func (t *Type) Mask(v uint64) uint64 { return v & t.MaxUint() }

// SignBit reports whether the sign bit of v is set under this type's width.
func (t *Type) SignBit(v uint64) bool {
	return v&(uint64(1)<<uint(t.Width-1)) != 0
}

// ToSigned sign-extends the type-width value v to a Go int64.
func (t *Type) ToSigned(v uint64) int64 {
	v = t.Mask(v)
	if t.SignBit(v) {
		return int64(v | ^t.MaxUint())
	}
	return int64(v)
}
