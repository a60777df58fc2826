package cqapprox

import (
	"context"

	"cqapprox/internal/eval"
	"cqapprox/internal/relstr"
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

// countOn dispatches one counting call to the plan's exact or
// estimating entry point, traced or not. Counting shares the unified
// option config (options.go): WithEvalParallelism overrides the
// default worker budget, WithTrace attaches the trace, and the
// estimator knobs land in cfg.count.
func countOn(ctx context.Context, pl *eval.Plan, sn *relstr.Snapshot, par int, estimate bool, opts []CountOption) (*CountResult, error) {
	cfg := optConfigOf(opts)
	par = cfg.parallelism(par)
	if estimate {
		return pl.EstimateCount(ctx, sn, par, cfg.count, cfg.trace)
	}
	return pl.Count(ctx, sn, par, cfg.trace)
}

// Count returns the exact number of distinct answers of the prepared
// (approximated) query on db — without materialising them when the
// plan permits. A tree of an acyclic plan whose head structure is
// free-connex-like counts in the Yannakakis bottom-up pass itself, in
// O(|D|·|Q'|): its weighted steps carry each row's number of
// extensions; every other tree, and a cyclic plan, counts the answers
// of the search Eval runs without keeping them (see CountResult.Mode).
// The worker budget (WithEvalParallelism, else the engine default)
// applies to the reduction, which runs the DP, and to the join. The
// error is ErrCountOverflow when the count exceeds uint64.
func (p *PreparedQuery) Count(ctx context.Context, db *Structure, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, p.plan, relstr.Borrow(db), p.Parallelism(), false, opts)
}

// EstimateCount returns the number of distinct answers on db, using
// the FPRAS-style sampling estimator exactly where exact counting
// would have to materialise answers: with probability at least 1-δ
// the estimate is within a (1±ε) factor of the true count. Plans that
// count exactly for free return the exact count (Estimated false) —
// estimation never makes a cheap count worse. The sampler weighs each
// assignment exactly in uint64, so the error is ErrCountOverflow when
// a sampled tree has 2^64 or more full assignments, as for an exact
// multiplicity DP; Count may still count such a plan exactly.
//
//	res, err := p.EstimateCount(ctx, db,
//		cqapprox.WithEpsilon(0.05), cqapprox.WithSeed(7))
func (p *PreparedQuery) EstimateCount(ctx context.Context, db *Structure, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, p.plan, relstr.Borrow(db), p.Parallelism(), true, opts)
}

// Count is PreparedQuery.Count over the binding's snapshot: the
// reduction, with its weighted steps, probes the snapshot's persistent
// shared indexes instead of deriving per-call ones.
func (b *BoundQuery) Count(ctx context.Context, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, b.p.plan, b.db.snap, b.p.Parallelism(), false, opts)
}

// EstimateCount is PreparedQuery.EstimateCount over the binding's
// snapshot; see BoundQuery.Count.
func (b *BoundQuery) EstimateCount(ctx context.Context, opts ...CountOption) (*CountResult, error) {
	return countOn(ctx, b.p.plan, b.db.snap, b.p.Parallelism(), true, opts)
}
