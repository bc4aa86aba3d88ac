package zen

import (
	"context"
	"math/big"
	"reflect"

	"zen-go/internal/cancel"
	"zen-go/internal/stateset"
)

// World owns the BDD space in which state sets and transformers live. Sets
// and transformers only compose within one World.
type World struct {
	w *stateset.World
}

// NewWorld returns a fresh state-set world. Options WithStats and
// WithTracer attach telemetry to every set and transformer operation of
// the world; WithContext bounds every operation of the world by the
// context — when it dies, the operation in flight panics with
// *CancelledError (set algebra has no error returns). Other options are
// ignored: worlds are BDD-only and list-free.
func NewWorld(opts ...Option) *World {
	o := buildOptions(opts)
	w := stateset.NewWorld()
	w.Obs = o.Stats
	w.Tracer = o.Tracer
	if chk := o.check(); chk != nil {
		// Convert directly to the public panic at the poll site: world
		// operations have no single boundary where an internal abort
		// could be trapped and returned as an error.
		w.Manager().SetInterrupt(func() error {
			if err := chk(); err != nil {
				panic(&CancelledError{Err: err})
			}
			return nil
		})
	}
	return &World{w: w}
}

// Internal returns the underlying state-set world for analyses that need
// raw BDD access (e.g. atomic predicates).
func (w *World) Internal() *stateset.World { return w.w }

// SetOrderingHeuristic toggles the equality-interleaving variable-ordering
// heuristic (on by default; exposed for ablation).
func (w *World) SetOrderingHeuristic(on bool) { w.w.DisableOrderingHeuristic = !on }

// SetFreshSpaces toggles per-transformer fresh variable spaces (on by
// default; exposed for ablation).
func (w *World) SetFreshSpaces(on bool) { w.w.DisableFreshSpaces = !on }

// StateSet is a symbolically represented set of values of type T — the
// paper's StateSet<T>. Operations are exact over the whole (finite) space
// of T.
type StateSet[T any] struct {
	s stateset.Set
}

// EmptySet returns ∅ over T.
func EmptySet[T any](w *World) StateSet[T] {
	return StateSet[T]{s: w.w.Empty(TypeOf[T]())}
}

// FullSet returns the set of all values of T.
func FullSet[T any](w *World) StateSet[T] {
	return StateSet[T]{s: w.w.Full(TypeOf[T]())}
}

// SetOf builds {x | pred(x)} symbolically.
func SetOf[T any](w *World, pred func(Value[T]) Value[bool]) StateSet[T] {
	x := Symbolic[T]("set")
	return StateSet[T]{s: w.w.FromPredicate(TypeOf[T](), pred(x).n, x.n.VarID)}
}

// SingletonSet returns {v}.
func SingletonSet[T any](w *World, v T) StateSet[T] {
	return StateSet[T]{s: w.w.Singleton(liftValue(reflectValue(v)))}
}

// Union returns s ∪ o.
func (s StateSet[T]) Union(o StateSet[T]) StateSet[T] { return StateSet[T]{s: s.s.Union(o.s)} }

// Intersect returns s ∩ o.
func (s StateSet[T]) Intersect(o StateSet[T]) StateSet[T] {
	return StateSet[T]{s: s.s.Intersect(o.s)}
}

// Minus returns s \ o.
func (s StateSet[T]) Minus(o StateSet[T]) StateSet[T] { return StateSet[T]{s: s.s.Minus(o.s)} }

// Complement returns T \ s.
func (s StateSet[T]) Complement() StateSet[T] { return StateSet[T]{s: s.s.Complement()} }

// IsEmpty reports whether the set is empty.
func (s StateSet[T]) IsEmpty() bool { return s.s.IsEmpty() }

// IsFull reports whether the set is all of T.
func (s StateSet[T]) IsFull() bool { return s.s.IsFull() }

// Equal reports set equality in O(1) (canonical BDDs).
func (s StateSet[T]) Equal(o StateSet[T]) bool { return s.s.Equal(o.s) }

// Subset reports s ⊆ o.
func (s StateSet[T]) Subset(o StateSet[T]) bool { return s.s.Subset(o.s) }

// Disjoint reports whether s ∩ o = ∅, without building the intersection.
func (s StateSet[T]) Disjoint(o StateSet[T]) bool { return s.s.Disjoint(o.s) }

// Count returns |s|.
func (s StateSet[T]) Count() *big.Int { return s.s.Count() }

// Element returns an arbitrary element, or ok=false when empty.
func (s StateSet[T]) Element() (T, bool) {
	var zero T
	v, ok := s.s.Element()
	if !ok {
		return zero, false
	}
	rt := reflect.TypeOf((*T)(nil)).Elem()
	return toGo(v, rt).Interface().(T), true
}

// Contains reports whether v ∈ s.
func (s StateSet[T]) Contains(v T) bool {
	return s.s.Contains(liftValue(reflectValue(v)))
}

// Internal exposes the untyped set for analyses needing raw access.
func (s StateSet[T]) Internal() stateset.Set { return s.s }

// Transformer relates inputs to outputs of a Zen function symbolically —
// the paper's StateSetTransformer<I,O>. Forward images and reverse
// preimages are exact.
type Transformer[I, O any] struct {
	t *stateset.Transformer
	w *World
}

// NewTransformer builds the transformer of fn in world w.
func NewTransformer[I, O any](w *World, fn *Fn[I, O]) Transformer[I, O] {
	t := w.w.Transformer(fn.out.n, fn.arg.n.VarID, TypeOf[I](), TypeOf[O]())
	return Transformer[I, O]{t: t, w: w}
}

// Forward computes TransformForward: the image {f(x) | x ∈ s}.
func (t Transformer[I, O]) Forward(s StateSet[I]) StateSet[O] {
	return StateSet[O]{s: t.t.Forward(s.s)}
}

// ForwardCtx is Forward bounded by a context: the relational product
// polls the context and the call returns its error on cancellation. The
// context is armed on the world's shared manager for the duration of the
// call, temporarily displacing any check installed by NewWorld's
// WithContext.
func (t Transformer[I, O]) ForwardCtx(ctx context.Context, s StateSet[I]) (out StateSet[O], err error) {
	chk := cancel.FromContext(ctx)
	if chk == nil {
		return t.Forward(s), nil
	}
	man := t.w.w.Manager()
	man.SetInterrupt(chk)
	defer man.SetInterrupt(nil)
	defer cancel.Trap(&err)
	return t.Forward(s), nil
}

// Reverse computes TransformReverse: the preimage {x | f(x) ∈ s}.
func (t Transformer[I, O]) Reverse(s StateSet[O]) StateSet[I] {
	return StateSet[I]{s: t.t.Reverse(s.s)}
}

// ReverseCtx is Reverse bounded by a context, with the same contract as
// ForwardCtx.
func (t Transformer[I, O]) ReverseCtx(ctx context.Context, s StateSet[O]) (out StateSet[I], err error) {
	chk := cancel.FromContext(ctx)
	if chk == nil {
		return t.Reverse(s), nil
	}
	man := t.w.w.Manager()
	man.SetInterrupt(chk)
	defer man.SetInterrupt(nil)
	defer cancel.Trap(&err)
	return t.Reverse(s), nil
}

// UsesFreshSpace reports whether the variable-ordering heuristic gave this
// transformer its own variable space (§6).
func (t Transformer[I, O]) UsesFreshSpace() bool { return t.t.UsesFreshSpace() }

// SolutionSet returns {x | fn(x) = true} for a boolean-valued function: the
// reverse image of {true}. It evaluates the DAG fn already built, so the
// model is not run again.
func SolutionSet[I any](w *World, fn *Fn[I, bool]) StateSet[I] {
	return StateSet[I]{s: w.w.FromPredicate(TypeOf[I](), fn.out.n, fn.arg.n.VarID)}
}

// OrderHint carries a model's expression for variable-ordering analysis.
type OrderHint struct {
	expr  *coreNode
	varID int32
}

// Hint extracts an ordering hint from a Zen function whose input type is T.
func (fn *Fn[I, O]) Hint() OrderHint {
	return OrderHint{expr: fn.out.n, varID: fn.arg.n.VarID}
}

// DeclareOrder fixes the canonical variable order of type T from the
// grouping constraints of the given model functions. Call it before
// building any set or transformer over T; it is a no-op once T's region
// exists. This lets a whole analysis (e.g. HSA over every interface of a
// network) agree on one good order up front instead of forking per-
// transformer variable spaces (§6).
func DeclareOrder[T any](w *World, hints ...OrderHint) {
	exprs := make([]*coreNode, len(hints))
	ids := make([]int32, len(hints))
	for i, h := range hints {
		exprs[i] = h.expr
		ids[i] = h.varID
	}
	w.w.EnsureOrderedRegion(TypeOf[T](), exprs, ids)
}

// Cubes renders the set as HSA-style wildcard cubes (strings like
// {DstIP=0xA000000/0xFF000000, DstPort=22, Protocol=*}), up to max entries
// (0 = all). Cubes are disjoint and cover the set exactly.
func (s StateSet[T]) Cubes(max int) []string {
	cubes := s.s.Cubes(max)
	out := make([]string, len(cubes))
	for i, c := range cubes {
		out[i] = c.String()
	}
	return out
}
