package cqapprox

import (
	"cqapprox/internal/count"
)

// The unified per-call option surface. Evaluation and counting share
// one internal option-config pattern: every knob is a function over
// optConfig, EvalOption and CountOption are aliases of the same
// underlying type, and the shared knobs (WithEvalParallelism,
// WithTrace) compose with either family. Knobs a call cannot honor are
// inert there: estimator accuracy knobs on Eval, ordering knobs on
// Count, WithTrace on Eval/Answers (whose signatures carry no trace —
// use EvalTrace, or Count's WithTrace, to observe one).

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
	count count.Options
}

// EvalOption tunes one evaluation call (Eval, EvalBool, Answers,
// AnswersErr, and their BoundQuery equivalents).
type EvalOption = func(*optConfig)

// CountOption tunes Count and EstimateCount. It is the same underlying
// type as EvalOption: the shared knobs (WithEvalParallelism, WithTrace)
// apply to both families.
type CountOption = EvalOption

func optConfigOf(opts []EvalOption) optConfig {
	var c optConfig
	for _, opt := range opts {
		opt(&c)
	}
	return c
}

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

// ordered reports whether the call asked for a specific answer order
// (ranked enumeration, not just truncation).
func (c *optConfig) ordered() bool { return len(c.order) > 0 || c.desc }

// ranked reports whether the call needs the ranked machinery at all:
// an explicit order, a direction, or a limit worth terminating early
// for.
func (c *optConfig) ranked() bool { return c.ordered() || c.limit > 0 }

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

// WithEvalParallelism runs the call morsel-driven parallel on up to n
// workers (n ≤ 1 means serial), overriding the engine's
// WithParallelism default for this call only.
// Answers are byte-identical to serial evaluation. Applies to every
// evaluation and counting call.
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
// CountResult.Trace. Eval and Answers accept the option but have no
// trace slot — use EvalTrace for a traced evaluation. Off by default;
// untraced calls pay nothing for the machinery.
func WithTrace() CountOption {
	return func(c *optConfig) { c.trace = true }
}
