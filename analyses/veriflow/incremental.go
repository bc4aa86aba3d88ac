package veriflow

import "zen-go/zen"

// Changed computes the exact set of inputs whose behavior differs
// between two models of the same signature — the symmetric difference
// of the functions, as a state set. It is the first half of the
// Veriflow update rule: outside this set, every previously-established
// verdict still stands; inside it, nothing does.
//
// The kernel is generic so it serves any model family: forwarding
// tables (Monitor below) or anything else expressible as a Zen function
// over a list-free input. It builds both functions' DAGs; a caller that
// keeps the previous generation's set (zend's /v1/update ACL path does)
// can take the symmetric difference with the new set instead.
func Changed[T, V any](w *zen.World, oldFn, newFn func(zen.Value[T]) zen.Value[V]) zen.StateSet[T] {
	return zen.SetOf(w, func(h zen.Value[T]) zen.Value[bool] {
		return zen.Ne(oldFn(h), newFn(h))
	})
}

// Reverify is the second half of the update rule: previous verdicts are
// kept outside the change set and replaced by the freshly-recomputed
// set inside it,
//
//	new = (prev ∖ changed) ∪ (recomputed ∩ changed)
//
// which provably agrees with full recomputation: the two sides are
// equal outside changed by the definition of Changed, and inside it the
// recomputed set is used directly.
func Reverify[T any](prev, changed, recomputed zen.StateSet[T]) zen.StateSet[T] {
	return prev.Minus(changed).Union(recomputed.Intersect(changed))
}
