package cqapprox

import (
	"cqapprox/internal/eval"
)

// The unified per-call option surface. Evaluation and counting share
// one internal option-config pattern: every knob is a function over
// optConfig, EvalOption and CountOption are aliases of the same
// underlying type, and the shared knobs (WithEvalParallelism,
// WithTrace) compose with either family. PreparedQuery.read resolves
// a call's options once into the executor's request (eval.Read). Knobs
// a call cannot honor are inert there: estimator accuracy knobs on
// Eval, ordering knobs on EvalBool and Count, WithTrace on
// Eval/EvalBool/Answers (whose signatures carry no trace — use
// EvalTrace or EvalBoolTrace, or Count's WithTrace, to observe one).

// optConfig is the resolved option set of one evaluation or counting
// call.
type optConfig struct {
	// Shared plumbing.
	trace  bool
	par    int
	parSet bool

	// Ranked evaluation (Eval/Answers).
	order []string
	desc  bool
	limit int

	// Counting accuracy (Count/EstimateCount).
	count eval.CountOptions
}

// EvalOption tunes one read of a BoundQuery (Eval, EvalBool, Answers,
// AnswersErr, their traced forms, and PreparedQuery.Eval/EvalTrace).
type EvalOption = func(*optConfig)

// CountOption tunes Count and EstimateCount. It is the same underlying
// type as EvalOption: the shared knobs (WithEvalParallelism, WithTrace)
// apply to both families.
type CountOption = EvalOption

// parallelism resolves the call's worker budget: the option's value
// when WithEvalParallelism was given, otherwise the default def.
func (c *optConfig) parallelism(def int) int {
	if !c.parSet {
		return def
	}
	if c.par < 1 {
		return 1
	}
	return c.par
}

// WithOrder sorts the answers by the named head variables, most
// significant first (each must be a distinct head variable of the
// query); head positions not named are appended in query order to make
// the key total. With no WithOrder, ranked calls use the head's
// natural left-to-right order. Applies to Eval and Answers; Count and
// EvalBool ignore it.
func WithOrder(vars ...string) EvalOption {
	return func(c *optConfig) { c.order = append([]string{}, vars...) }
}

// WithDescending reverses the answer order (the full comparison flips,
// ties included). Applies to Eval and Answers.
func WithDescending() EvalOption {
	return func(c *optConfig) { c.desc = true }
}

// WithLimit stops the evaluation after the first k answers (in the
// requested order for Eval and ordered Answers; any-k for plain
// Answers streams, which keep their first-answer latency). k ≤ 0
// means unlimited. Lex-connex plans never pay for answers beyond the
// limit; untractable orders evaluate fully, sort, and truncate.
func WithLimit(k int) EvalOption {
	return func(c *optConfig) { c.limit = k }
}

// WithEvalParallelism runs the call's reductions — the semijoin
// passes, and for counts the DP and distinct projections —
// morsel-driven parallel on up to n workers (n ≤ 1 means serial),
// overriding the engine's WithParallelism default for this call only.
// The answer search that follows is serial. Answers are byte-identical
// to serial evaluation. Applies to every evaluation and counting call.
func WithEvalParallelism(n int) EvalOption {
	return func(c *optConfig) { c.par = n; c.parSet = true }
}

// WithEpsilon sets the estimator's relative error target ε
// (default 0.1): with probability at least 1-δ the estimate is within
// a (1±ε) factor of the true count. Counting calls only.
func WithEpsilon(eps float64) CountOption {
	return func(c *optConfig) { c.count.Epsilon = eps }
}

// WithDelta sets the estimator's failure probability δ (default 0.05).
// Counting calls only.
func WithDelta(delta float64) CountOption {
	return func(c *optConfig) { c.count.Delta = delta }
}

// WithSeed fixes the estimator's random seed (default 1): identical
// prepared query, database, options and seed reproduce the estimate
// bit for bit. Counting calls only.
func WithSeed(seed int64) CountOption {
	return func(c *optConfig) { c.count.Seed = seed }
}

// WithMaxSamples caps the total samples one EstimateCount may draw
// (default 200000); batch sizes shrink to fit the cap. Counting calls
// only.
func WithMaxSamples(n int) CountOption {
	return func(c *optConfig) { c.count.MaxSamples = n }
}

// WithTrace attaches an execution trace to the call where the result
// can carry one: Count and EstimateCount report it in
// CountResult.Trace. Eval, EvalBool and Answers accept the option but
// have no trace slot — use EvalTrace or EvalBoolTrace for a traced
// evaluation. Off by default; untraced calls pay nothing for the
// machinery.
func WithTrace() CountOption {
	return func(c *optConfig) { c.trace = true }
}
