package cqapprox

import "cqapprox/internal/obs"

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
