package cqapprox

import (
	"context"

	"cqapprox/internal/count"
	"cqapprox/internal/eval"
)

// CountResult is the outcome of Count or EstimateCount: the answer
// count (exact, or the rounded estimate), how it was obtained, and —
// for estimates — the sampling effort and the accuracy knobs in
// effect.
type CountResult struct {
	// Count is the number of distinct answers; exact when Estimated is
	// false, the rounded Estimate otherwise.
	Count uint64
	// Estimate is the raw, possibly fractional estimate (float64(Count)
	// for exact results).
	Estimate float64
	// Estimated reports whether sampling produced the result.
	Estimated bool
	// Mode names the path taken: "exact-dp" (multiplicity DP over the
	// reduced forest, no answer materialisation), "exact-eval" (full
	// evaluation, counted), "exact-enum" (backtracking enumeration,
	// cyclic plans), or "estimate" (the sampling estimator).
	Mode string
	// Samples and Batches report the estimator's effort (zero when
	// exact).
	Samples int
	Batches int
	// Epsilon and Delta echo the accuracy target of an estimate.
	Epsilon float64
	Delta   float64
	// Trace is the execution trace of this count, present only when the
	// call opted in with WithTrace; nil otherwise.
	Trace *ExecTrace `json:"trace,omitempty"`
}

func fromCount(r count.Result) *CountResult {
	return &CountResult{
		Count:     r.Count,
		Estimate:  r.Estimate,
		Estimated: r.Estimated,
		Mode:      r.Mode,
		Samples:   r.Samples,
		Batches:   r.Batches,
		Epsilon:   r.Epsilon,
		Delta:     r.Delta,
	}
}

// countOn dispatches one counting call to the exact or estimating
// subsystem entry point, traced or not. Counting shares the unified
// option config (options.go): WithEvalParallelism overrides the
// default worker budget, WithTrace attaches the trace, and the
// estimator knobs land in cfg.count.
func countOn(ctx context.Context, pl *eval.Plan, src eval.Source, par int, estimate bool, opts []CountOption) (*CountResult, error) {
	cfg := optConfigOf(opts)
	par = cfg.parallelism(par)
	var (
		res count.Result
		tr  *ExecTrace
		err error
	)
	switch {
	case estimate && cfg.trace:
		res, tr, err = count.EstimateTrace(ctx, pl, src, par, cfg.count)
	case estimate:
		res, err = count.Estimate(ctx, pl, src, par, cfg.count)
	case cfg.trace:
		res, tr, err = count.ExactTrace(ctx, pl, src, par)
	default:
		res, err = count.Exact(ctx, pl, src, par)
	}
	if err != nil {
		return nil, err
	}
	out := fromCount(res)
	out.Trace = tr
	return out, nil
}

// Count returns the exact number of distinct answers of the prepared
// (approximated) query on db — without materialising them when the
// plan permits. Acyclic plans whose head structure is free-connex-like
// count by a multiplicity DP over the Yannakakis-reduced forest in
// O(|D|·|Q'|); other acyclic plans fall back to a counted evaluation,
// cyclic plans to counted enumeration (see CountResult.Mode). The
// worker budget (WithEvalParallelism, else the engine default) applies
// to the reduction and DP passes. The error is ErrCountOverflow when
// the count exceeds uint64.
func (p *PreparedQuery) Count(ctx context.Context, db *Structure, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, p.plan, eval.NewSource(db), p.Parallelism(), false, opts)
}

// EstimateCount returns the number of distinct answers on db, using
// the FPRAS-style sampling estimator exactly where exact counting
// would have to materialise answers: with probability at least 1-δ
// the estimate is within a (1±ε) factor of the true count. Plans that
// count exactly for free return the exact count (Estimated false) —
// estimation never makes a cheap count worse.
//
//	res, err := p.EstimateCount(ctx, db,
//		cqapprox.WithEpsilon(0.05), cqapprox.WithSeed(7))
func (p *PreparedQuery) EstimateCount(ctx context.Context, db *Structure, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, p.plan, eval.NewSource(db), p.Parallelism(), true, opts)
}

// Count is PreparedQuery.Count over the binding's snapshot: reduction
// and DP probe the snapshot's persistent shared indexes instead of
// deriving per-call ones.
func (b *BoundQuery) Count(ctx context.Context, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, b.p.plan, b.source(), b.p.Parallelism(), false, opts)
}

// EstimateCount is PreparedQuery.EstimateCount over the binding's
// snapshot; see BoundQuery.Count.
func (b *BoundQuery) EstimateCount(ctx context.Context, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, b.p.plan, b.source(), b.p.Parallelism(), true, opts)
}
