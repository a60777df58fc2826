package cqapprox

import (
	"context"

	"cqapprox/internal/eval"
)

// CountResult is the outcome of Count or EstimateCount: Count, the
// number of distinct answers (exact, or the rounded Estimate when
// Estimated), and Mode, the path taken — "exact-dp" (multiplicity DPs
// run by the bottom-up semijoin pass itself, whose weighted steps sum
// and multiply per-row counts, and single-node searches over the
// forest it reduced toward the node each count starts from, no answer
// materialisation), "exact-eval" (an acyclic plan's search, the one
// Eval runs, its answers counted without being kept), "exact-enum"
// (the same count of a cyclic plan's bag search) or "estimate" (the
// sampling estimator, with its Samples, Batches, Epsilon and Delta).
// Trace is set only when the call opted in with WithTrace.
type CountResult = eval.CountResult

// count is the binding's counting read, which ignores the ordering
// knobs; estimate is EstimateCount's.
func (b *BoundQuery) count(ctx context.Context, opts []CountOption, estimate bool) (*CountResult, error) {
	r, _ := b.p.read(opts)
	r.Estimate = estimate
	return b.p.plan.Count(ctx, b.db.snap, r)
}

// Count returns the exact number of distinct answers of the bound
// query — without materialising them when the plan permits. A tree of
// an acyclic plan whose head structure is free-connex-like counts in
// the Yannakakis bottom-up pass itself, in O(|D|·|Q'|): its weighted
// steps carry each row's number of extensions; every other tree, and a
// cyclic plan, counts the answers of the search Eval runs without
// keeping them (see CountResult.Mode). The worker budget
// (WithEvalParallelism, else the engine default) applies to the
// reduction, which runs the DP, and to the join; WithTrace attaches
// the trace. The error is ErrCountOverflow when the count exceeds
// uint64.
func (b *BoundQuery) Count(ctx context.Context, opts ...CountOption) (*CountResult, error) {
	return b.count(ctx, opts, false)
}

// EstimateCount returns the number of distinct answers of the bound
// query, using the FPRAS-style sampling estimator exactly where exact
// counting would have to materialise answers: with probability at
// least 1-δ the estimate is within a (1±ε) factor of the true count.
// Plans that count exactly for free return the exact count (Estimated
// false) — estimation never makes a cheap count worse. The sampler
// weighs each assignment exactly in uint64, so the error is
// ErrCountOverflow when a sampled tree has 2^64 or more full
// assignments, as for an exact multiplicity DP; Count may still count
// such a plan exactly.
//
//	res, err := p.Bind(cqapprox.Borrow(db)).EstimateCount(ctx,
//		cqapprox.WithEpsilon(0.05), cqapprox.WithSeed(7))
func (b *BoundQuery) EstimateCount(ctx context.Context, opts ...CountOption) (*CountResult, error) {
	return b.count(ctx, opts, true)
}
