// Package cost holds the solver-cost hazard thresholds: where symbolic
// multiplication, wide shifts and nested list elimination stop being
// cheap. It is a leaf package so that every layer that needs the numbers
// reads the same ones: the lint cost advisor (internal/lint) flags the
// hazards in user models, the fuzz generator (internal/fuzz) steers
// around them, and the auto-backend predictor (internal/absint) routes
// queries that contain them away from BDDs. Tightening a threshold here
// changes all three at once.
package cost

// Shared constants, not config: the fuzz generator, the lint advisor and
// the predictor must agree on where "safe" ends.
const (
	// MulFriendlyWidth is the widest bitvector for which symbolic
	// multiplication stays tractable in every backend. Multiplication is
	// quadratic in width for SAT and exponential for BDDs — even
	// multiplication by an arbitrary odd constant blows up the variable
	// ordering at 32 bits. The fuzz generator only emits Mul at or below
	// this width; the advisor flags Mul above it.
	MulFriendlyWidth = 8

	// WideShiftWidth is the width above which only edge shift amounts
	// (0, 1, w-1, w, w+1) are cheap. A mid-range shift under arithmetic
	// links bit i to bit i+k for large k, which is exponential for the
	// BDD backend — the same reason multiplication is banned there. The
	// fuzz generator draws only edge amounts above this width; the advisor
	// flags mid-range amounts above it.
	WideShiftWidth = 24

	// DeepCaseDepth is the nesting depth of list case-elimination beyond
	// which the advisor warns: each level multiplies the guarded-union
	// encoding by the list bound, so depth beyond this reads as unbounded
	// recursion to the solver.
	DeepCaseDepth = 8
)

// ShiftEdgeAmounts returns the cheap shift amounts for a bitvector of the
// given width: identity-adjacent and out-of-range edges only. The fuzz
// generator draws from exactly this set on wide vectors.
func ShiftEdgeAmounts(width int) []int {
	return []int{0, 1, width - 1, width, width + 1}
}

// MidRangeShift reports whether shifting a width-bit vector by amount is a
// mid-range shift on a wide vector — the hazardous case.
func MidRangeShift(width, amount int) bool {
	if width <= WideShiftWidth {
		return false
	}
	for _, e := range ShiftEdgeAmounts(width) {
		if amount == e {
			return false
		}
	}
	return true
}
