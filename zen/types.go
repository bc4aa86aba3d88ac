// Package zen is a Go embedding of the Zen intermediate verification
// language from "A General Framework for Compositional Network Modeling"
// (HotNets '20).
//
// Users model functionality — packet filters, forwarding, tunnels, route
// policies — as ordinary Go functions over Value[T] wrappers. Calling such a
// function with a symbolic argument builds an expression DAG, which every
// analysis backend can then consume:
//
//   - Evaluate: concrete simulation,
//   - Find: (counter)example search via BDD or SAT ("SMT") solving,
//   - Transformer/StateSet: unbounded set reasoning (HSA-style),
//   - GenerateInputs: high-coverage test-input generation,
//   - Compile: extraction of an executable Go implementation.
//
// The wrapper type Value[T] mirrors the paper's Zen<T>: a value of type T
// that may be symbolic or concrete. Where the C# original overloads
// operators and uses runtime reflection over classes, this Go embedding uses
// generic free functions (zen.Add, zen.Eq, zen.GetField) plus reflection
// over plain Go structs and slices.
package zen

import (
	"fmt"
	"reflect"
	"sync"

	"zen-go/internal/core"
	"zen-go/internal/interp"
)

// Integer enumerates the Go integer types Zen models as bitvectors. Sized
// types only: `int` and `uint` are platform-dependent and not supported.
type Integer interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

var typeCache sync.Map // reflect.Type -> *core.Type

// TypeOf maps a Go type to its Zen type. Supported: bool, sized integers,
// structs of supported types (exported fields, in declaration order), and
// slices of supported types.
func TypeOf[T any]() *core.Type {
	return goType(reflect.TypeOf((*T)(nil)).Elem())
}

func goType(rt reflect.Type) *core.Type {
	if t, ok := typeCache.Load(rt); ok {
		return t.(*core.Type)
	}
	t := buildGoType(rt)
	typeCache.Store(rt, t)
	return t
}

func buildGoType(rt reflect.Type) *core.Type {
	switch rt.Kind() {
	case reflect.Bool:
		return core.Bool()
	case reflect.Uint8:
		return core.BV(8, false)
	case reflect.Uint16:
		return core.BV(16, false)
	case reflect.Uint32:
		return core.BV(32, false)
	case reflect.Uint64:
		return core.BV(64, false)
	case reflect.Int8:
		return core.BV(8, true)
	case reflect.Int16:
		return core.BV(16, true)
	case reflect.Int32:
		return core.BV(32, true)
	case reflect.Int64:
		return core.BV(64, true)
	case reflect.Struct:
		fields := make([]core.Field, 0, rt.NumField())
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.PkgPath != "" {
				panic(fmt.Sprintf("zen: struct %s has unexported field %s; Zen models must use exported fields", rt, f.Name))
			}
			fields = append(fields, core.Field{Name: f.Name, Type: goType(f.Type)})
		}
		return core.Object(rt.Name(), fields...)
	case reflect.Slice:
		return core.List(goType(rt.Elem()))
	}
	panic(fmt.Sprintf("zen: unsupported Go type %s (use bool, sized integers, structs, or slices)", rt))
}

// liftValue converts a concrete Go value to an interpreter value.
func liftValue(rv reflect.Value) *interp.Value {
	t := goType(rv.Type())
	switch t.Kind {
	case core.KindBool:
		return interp.Bool(rv.Bool())
	case core.KindBV:
		if t.Signed {
			return interp.BV(t, uint64(rv.Int()))
		}
		return interp.BV(t, rv.Uint())
	case core.KindObject:
		fields := make([]*interp.Value, rv.NumField())
		for i := range fields {
			fields[i] = liftValue(rv.Field(i))
		}
		return interp.Object(t, fields...)
	case core.KindList:
		elems := make([]*interp.Value, rv.Len())
		for i := range elems {
			elems[i] = liftValue(rv.Index(i))
		}
		return interp.List(t, elems...)
	}
	panic("zen: unsupported kind")
}

// goValue converts an interpreter value back into a Go value of type T.
func goValue[T any](v *interp.Value) T {
	return toGo(v, reflect.TypeOf((*T)(nil)).Elem()).Interface().(T)
}

// toGo converts an interpreter value back into a Go value of type rt.
func toGo(v *interp.Value, rt reflect.Type) reflect.Value {
	out := reflect.New(rt).Elem()
	switch v.Type.Kind {
	case core.KindBool:
		out.SetBool(v.B)
	case core.KindBV:
		if v.Type.Signed {
			out.SetInt(v.Type.ToSigned(v.U))
		} else {
			out.SetUint(v.U)
		}
	case core.KindObject:
		for i, f := range v.Fields {
			out.Field(i).Set(toGo(f, rt.Field(i).Type))
		}
	case core.KindList:
		s := reflect.MakeSlice(rt, len(v.Elems), len(v.Elems))
		for i, e := range v.Elems {
			s.Index(i).Set(toGo(e, rt.Elem()))
		}
		out.Set(s)
	default:
		panic("zen: unsupported kind")
	}
	return out
}

// liftNode converts a concrete Go value into a constant expression DAG.
func liftNode(b *core.Builder, rv reflect.Value) *core.Node {
	t := goType(rv.Type())
	switch t.Kind {
	case core.KindBool:
		return b.BoolConst(rv.Bool())
	case core.KindBV:
		if t.Signed {
			return b.BVConst(t, uint64(rv.Int()))
		}
		return b.BVConst(t, rv.Uint())
	case core.KindObject:
		fields := make([]*core.Node, rv.NumField())
		for i := range fields {
			fields[i] = liftNode(b, rv.Field(i))
		}
		return b.Create(t, fields...)
	case core.KindList:
		n := b.ListNil(t)
		for i := rv.Len() - 1; i >= 0; i-- {
			n = b.ListCons(liftNode(b, rv.Index(i)), n)
		}
		return n
	}
	panic("zen: unsupported kind")
}

// zeroNode builds the all-zero constant of a Zen type (false, 0, empty
// lists, zeroed objects). Used for the unused payload of None options.
func zeroNode(b *core.Builder, t *core.Type) *core.Node {
	switch t.Kind {
	case core.KindBool:
		return b.BoolConst(false)
	case core.KindBV:
		return b.BVConst(t, 0)
	case core.KindObject:
		fields := make([]*core.Node, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = zeroNode(b, f.Type)
		}
		return b.Create(t, fields...)
	case core.KindList:
		return b.ListNil(t)
	}
	panic("zen: unsupported kind")
}
