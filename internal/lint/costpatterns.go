package lint

// This file is the single source of truth for statically-recognizable
// solver-cost hazards. The differential fuzzer (internal/fuzz) discovered
// these shapes empirically — campaigns that generated them timed out the
// BDD backend rather than finding real divergences — and its generator now
// steers around them. The lint cost advisor (costadvisor.go) flags the same
// shapes in user models. Both read the thresholds from internal/cost, as
// does the absint auto-backend predictor, so the fuzzer's avoidance rules,
// the linter's warnings and the predictor's picks cannot drift apart.

// CostClass identifies one hazard shape from the table.
type CostClass int

// Hazard shapes, in the order the fuzzing campaigns found them.
const (
	// CostWideMul is symbolic multiplication on wide bitvectors.
	CostWideMul CostClass = iota
	// CostMidShift is a mid-range constant shift on a wide bitvector
	// combined with arithmetic.
	CostMidShift
	// CostDeepLists is deeply nested list elimination (case-within-case),
	// whose guarded-union encoding grows multiplicatively with depth.
	CostDeepLists
)

// CostPattern is one row of the hazard table: what to look for, why it is
// expensive, and how severe it is per backend.
type CostPattern struct {
	Class CostClass
	Code  string // diagnostic code reported by the cost advisor
	Title string
	// Why is the rationale, promoted verbatim from the fuzz generator's
	// avoidance comments into shared data.
	Why string
	// Hint suggests a rewrite.
	Hint string
	// BDD and SAT grade the hazard per solver backend; Bitslice grades it
	// for the concrete bitsliced batch evaluator, where solver blowup
	// shapes are usually harmless (evaluation is concrete) but falling
	// out of the bitslice fragment costs the engine entirely.
	BDD, SAT, Bitslice Severity
}

// CostPatterns is the hazard table. Indexed by CostClass.
var CostPatterns = [...]CostPattern{
	CostWideMul: {
		Class: CostWideMul,
		Code:  "ZL501",
		Title: "wide symbolic multiplication",
		Why: "symbolic multiplication is quadratic in width for SAT and exponential " +
			"for BDDs; even multiplication by an arbitrary odd constant blows up " +
			"the variable ordering at 32 bits",
		Hint: "narrow the operands with zen.Cast, decompose into shifts and adds, " +
			"or run this model on the SAT backend only",
		BDD: SevError,
		SAT: SevWarn,
		// Concrete batch evaluation has no ordering to blow up; a wide mul
		// is a shift-add ladder, quadratic in width but still cheap.
		Bitslice: SevInfo,
	},
	CostMidShift: {
		Class: CostMidShift,
		Code:  "ZL502",
		Title: "mid-range shift on wide bitvector under arithmetic",
		Why: "a mid-range shift links bit i to bit i+k for large k; combined with " +
			"carry chains from arithmetic this is exponential for the BDD backend " +
			"(the same reason wide multiplication is)",
		Hint: "shift by edge amounts (0, 1, w-1, w), mask with BitAnd instead, or " +
			"keep the shifted value out of arithmetic",
		BDD: SevWarn,
		SAT: SevInfo,
		// A constant shift in the transposed form is pure register
		// renumbering — free at any amount.
		Bitslice: SevNone,
	},
	CostDeepLists: {
		Class: CostDeepLists,
		Code:  "ZL503",
		Title: "deeply nested list elimination",
		Why: "each case-within-case level multiplies the guarded-union encoding by " +
			"the list bound; recursion this deep reads as unbounded to the solver",
		Hint: "bound the recursion depth explicitly (zen.Fold's depth parameter) or " +
			"restructure the traversal to one pass",
		BDD: SevWarn,
		SAT: SevWarn,
		// The plan expands list operators through the same guarded unions
		// as the solvers, so nesting costs it the same blowup; and a model
		// whose inputs or results are lists loses the batch engine
		// altogether and falls back to the scalar interpreter per lane.
		Bitslice: SevWarn,
	},
}

// PatternFor returns the table row for a hazard class.
func PatternFor(c CostClass) CostPattern { return CostPatterns[c] }
