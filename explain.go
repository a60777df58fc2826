package cqapprox

import (
	"context"

	"cqapprox/internal/obs"
	"cqapprox/internal/relstr"
)

// PlanExplain is the EXPLAIN view of a prepared query: the static plan
// structure — the mode ("yannakakis" or "bags"), approximation class
// chosen, join-forest shape per tree, re-rooting decisions, dead-step
// eliminations and the counting classification, or a bag plan's tree
// decomposition. It carries no data and no clocks (the prepare-phase
// timings aside), so Text renders stably across runs on the same
// prepared query. The JSON encoding is the wire form served by
// POST /v1/explain.
type PlanExplain = obs.PlanExplain

// ExecTrace is the ANALYZE view of one traced evaluation or count: the
// per-node semijoin row counters, live-bitmap survivor counts, index
// build/probe counts, per-phase wall times and — for parallel runs —
// morsel chunk and worker-utilization accounting. Produced only by the
// *Trace call variants (EvalTrace, Count with WithTrace, …); untraced
// calls pay nothing for its existence.
type ExecTrace = obs.ExecTrace

// Phase is one named wall-time span inside a PlanExplain or ExecTrace.
type Phase = obs.Phase

// Explain returns the prepared query's static plan description. The
// same prepared query (including every cache hit of it) explains
// identically, except that Query/Minimized/Approximation render under
// the caller's own head name and Candidates is zero on cache hits
// (that caller ran no search). The Prepare phases are the wall times
// of the build that actually ran, shared across cache hits.
func (p *PreparedQuery) Explain() *PlanExplain {
	ex := p.plan.Explain()
	ex.Query = p.src.String()
	ex.Minimized = p.min.String()
	if p.class != nil {
		ex.Class = p.class.Name()
		ex.Approximation = p.chosen.String()
	}
	ex.Candidates = p.inspected
	if len(p.prep) > 0 {
		ex.Prepare = append([]Phase{}, p.prep...)
	}
	return ex
}

// EvalTrace is Eval plus an execution trace of this one call: the
// answers are identical (and the plan's cumulative counters advance
// exactly as for Eval); the trace additionally reports per-node rows
// in/out per semijoin pass, surviving rows per node, index builds and
// probes, per-phase wall times, and morsel/worker accounting when the
// evaluation ran parallel. Every option applies. A ranked call
// (WithOrder, WithDescending, WithLimit) whose key streams out of the
// join forest reports the bottom-up pass rooted at its first visit
// ("semijoin-down") and the ordered search ("ranked"); one that falls
// back reports the phases of the plain evaluation it sorts.
func (p *PreparedQuery) EvalTrace(ctx context.Context, db *Structure, opts ...EvalOption) (Answers, *ExecTrace, error) {
	return p.evalTraceOn(ctx, relstr.Borrow(db), opts)
}

// evalTraceOn is evalOn with tracing.
func (p *PreparedQuery) evalTraceOn(ctx context.Context, sn *relstr.Snapshot, opts []EvalOption) (Answers, *ExecTrace, error) {
	cfg := optConfigOf(opts)
	par := cfg.parallelism(p.Parallelism())
	if !cfg.ranked() {
		return p.plan.EvalTraceOn(ctx, sn, par)
	}
	spec, err := p.rankSpec(&cfg)
	if err != nil {
		return nil, nil, err
	}
	return p.plan.EvalRankedTraceOn(ctx, sn, par, spec)
}

// EvalBoolTrace is EvalBool plus an execution trace; the reduction
// stops at the bottom-up semijoin pass, exactly like EvalBool.
func (p *PreparedQuery) EvalBoolTrace(ctx context.Context, db *Structure, opts ...EvalOption) (bool, *ExecTrace, error) {
	return p.plan.EvalBoolTraceOn(ctx, relstr.Borrow(db), p.budget(opts))
}

// EvalTrace is PreparedQuery.EvalTrace over the binding's snapshot;
// the trace's index-build counters then reflect only builds the
// snapshot's persistent cache had not already absorbed.
func (b *BoundQuery) EvalTrace(ctx context.Context, opts ...EvalOption) (Answers, *ExecTrace, error) {
	return b.p.evalTraceOn(ctx, b.db.snap, opts)
}

// EvalBoolTrace is PreparedQuery.EvalBoolTrace over the binding's
// snapshot.
func (b *BoundQuery) EvalBoolTrace(ctx context.Context, opts ...EvalOption) (bool, *ExecTrace, error) {
	return b.p.plan.EvalBoolTraceOn(ctx, b.db.snap, b.p.budget(opts))
}
