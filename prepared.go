package cqapprox

import (
	"context"
	"fmt"
	"iter"
	"slices"

	"cqapprox/internal/core"
	"cqapprox/internal/eval"
	"cqapprox/internal/hom"
	"cqapprox/internal/obs"
)

// PreparedQuery is the result of Engine.Prepare: a query whose static,
// NP-hard work (minimization, approximation search, plan selection) is
// already done. It is immutable and safe for concurrent use — a single
// PreparedQuery can serve Eval calls from many goroutines over many
// databases.
type PreparedQuery struct {
	src       *Query   // original query, as given
	min       *Query   // its minimization (the original itself for over-budget exact prepares)
	class     Class    // nil for PrepareExact
	opt       Options  // search options used
	approxes  []*Query // all minimized C-approximations; nil for exact
	chosen    *Query   // the query the plan evaluates
	plan      *eval.Plan
	par       int         // default evaluation worker budget (≤1 = serial); see Parallelism
	inspected int         // candidates inspected by the search (0 for exact)
	fromCache bool        // true when Prepare served this from the cache (see CacheHit)
	prep      []obs.Phase // prepare-phase wall times recorded by build (shared, immutable)
}

// Parallelism reports the default evaluation worker budget: 1 for
// serial (the default), or whatever the engine's WithParallelism set.
// WithEvalParallelism overrides it per call.
func (p *PreparedQuery) Parallelism() int {
	if p.par < 1 {
		return 1
	}
	return p.par
}

// Query returns a copy of the original query this PreparedQuery was
// requested for. On cache hits the engine rebinds this to the caller's
// own query (see forCaller), so it is always the query you passed in,
// not another caller's alpha-variant.
func (p *PreparedQuery) Query() *Query { return p.src.Clone() }

// forCaller returns a shallow copy of p with the caller's own query
// identity: src is rebound to q and the head predicate names of the
// minimized query and the approximations are renamed after q, so cache
// hits never leak the first preparer's query name. Variable names are
// already canonical (build renames them), so beyond the head name
// every caller sees identical renderings. The plan is shared untouched
// and the inspected counter zeroed: this caller's Prepare ran no
// search.
func (p *PreparedQuery) forCaller(q *Query) *PreparedQuery {
	cp := *p
	cp.src = q.Clone()
	cp.inspected = 0
	cp.fromCache = true
	if cp.min.Name != q.Name {
		m := cp.min.Clone()
		m.Name = q.Name
		cp.min = m
	}
	if len(cp.approxes) > 0 {
		name := q.Name + "_approx"
		if cp.approxes[0].Name != name {
			renamed := make([]*Query, len(cp.approxes))
			for i, a := range cp.approxes {
				r := a.Clone()
				r.Name = name
				renamed[i] = r
			}
			cp.approxes = renamed
		}
		cp.chosen = cp.approxes[0]
	} else {
		cp.chosen = cp.min
	}
	return &cp
}

// Minimized returns a copy of the minimized original query, with
// canonically renamed variables. One exception: an over-budget
// PrepareExact (more than Options.MaxVars variables) skips
// minimization to avoid the exponential core computation, and
// Minimized then returns the original unminimized (still canonically
// renamed).
func (p *PreparedQuery) Minimized() *Query { return p.min.Clone() }

// Class returns the target class, or nil for PrepareExact.
func (p *PreparedQuery) Class() Class { return p.class }

// Approx returns a copy of the query the plan evaluates: the chosen
// C-approximation, or the minimized original for PrepareExact.
func (p *PreparedQuery) Approx() *Query { return p.chosen.Clone() }

// Approximations returns copies of all minimized C-approximations the
// search found (the paper's C-APPR_min(Q)), in deterministic order; the
// first is the one Eval uses. Nil for PrepareExact.
func (p *PreparedQuery) Approximations() []*Query {
	if p.approxes == nil {
		return nil
	}
	out := make([]*Query, len(p.approxes))
	for i, a := range p.approxes {
		out[i] = a.Clone()
	}
	return out
}

// CandidatesInspected reports how many in-class candidate tableaux the
// approximation search examined (0 on PrepareExact and, by design, on
// every cache hit — the point of preparing once).
func (p *PreparedQuery) CandidatesInspected() int { return p.inspected }

// Verify re-proves the prepare's result with fresh homomorphism tests.
// For a class C it checks that the chosen query Q′ is contained in the
// original query (Q′ ⊆ Q), lies in C (Q′ ∈ C), and is maximal: no
// C-query of the search space over the prepare's own Options lies
// strictly between Q′ and Q. core.IsApproximation decides all three;
// only when it fails are the first two re-checked, to name the property
// that broke. For PrepareExact it checks Q′ ≡ the minimized query. It
// returns an error naming the failed property, and nil when all hold.
// Verify repeats the exponential search, so it costs as much as the
// prepare did.
func (p *PreparedQuery) Verify() error {
	if p.class == nil {
		if !hom.Equivalent(p.chosen, p.min) {
			return fmt.Errorf("cqapprox: verify: Q′ ≡ min(Q) fails: %v is not equivalent to %v", p.chosen, p.min)
		}
		return nil
	}
	ok, err := core.IsApproximation(p.min, p.chosen, p.class, p.opt)
	switch {
	case err != nil:
		return fmt.Errorf("cqapprox: verify: %w", err)
	case ok:
		return nil
	case !p.class.Contains(p.chosen.Tableau().S):
		return fmt.Errorf("cqapprox: verify: Q′ ∈ %s fails for %v", p.class.Name(), p.chosen)
	case !hom.Contained(p.chosen, p.src):
		return fmt.Errorf("cqapprox: verify: Q′ ⊆ Q fails: %v is not contained in %v", p.chosen, p.src)
	}
	return fmt.Errorf("cqapprox: verify: maximality fails: a %s-query lies strictly between %v and %v", p.class.Name(), p.chosen, p.min)
}

// CacheHit reports whether the Prepare that returned this value was
// served from the engine's cache (including being handed an in-flight
// leader's result) instead of running the pipeline itself. It mirrors
// exactly the hit CacheStats recorded for that Prepare, even under
// concurrent preparation of the same key.
func (p *PreparedQuery) CacheHit() bool { return p.fromCache }

// PlanMode names the evaluation strategy the plan selected
// ("yannakakis" for acyclic queries, "bags" for cyclic ones).
func (p *PreparedQuery) PlanMode() string { return p.plan.Mode().String() }

// IndexStats returns the cumulative indexed-runtime counters of this
// prepared query's plan: hash indexes built over databases, rows
// driven through index probes, and evaluations run. The plan is shared
// across every cache hit of the same key, so the counters aggregate
// all callers — the per-plan view of what Engine.CacheStats sums over
// the whole cache.
func (p *PreparedQuery) IndexStats() IndexStats { return p.plan.IndexStats() }

// read resolves one call's options into the executor's request, once
// — the facade's one option resolver, which every read method below,
// MergeAnswers and ForwardOrder run through down to the plan. The
// worker budget is WithEvalParallelism's, else the default; WithTrace
// and the estimator knobs carry over. The ordering knobs resolve
// against the original query's head (see rankSpec), the one way a read
// can fail: only Eval and Answers order their answers, so a Boolean
// read or a count ignores the error, and the Read that comes with it
// has a zero Rank.
func (p *PreparedQuery) read(opts []EvalOption) (eval.Read, error) {
	var cfg optConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	spec, err := p.rankSpec(&cfg)
	return eval.Read{Par: cfg.parallelism(p.Parallelism()), Rank: spec, Count: cfg.count, Trace: cfg.trace}, err
}

// rankSpec resolves the call's ordering options against the query's
// head: each WithOrder name must be a distinct head variable of the
// original query (repeated head variables resolve to their first
// position — later repeats compare equal anyway). The error wraps
// ErrBadOrder and comes with a zero spec.
func (p *PreparedQuery) rankSpec(cfg *optConfig) (eval.RankSpec, error) {
	spec := eval.RankSpec{Desc: cfg.desc, Limit: cfg.limit}
	if len(cfg.order) == 0 {
		return spec, nil
	}
	spec.Order = make([]int, len(cfg.order))
	for k, name := range cfg.order {
		if slices.Contains(cfg.order[:k], name) {
			return eval.RankSpec{}, fmt.Errorf("%w: %q named twice", ErrBadOrder, name)
		}
		pos := slices.Index(p.src.Head, name)
		if pos == -1 {
			return eval.RankSpec{}, fmt.Errorf("%w: %q is not a head variable of %s", ErrBadOrder, name, p.src.Name)
		}
		spec.Order[k] = pos
	}
	return spec, nil
}

// Eval evaluates the prepared (approximated) query on db: it is
// p.Bind(Borrow(db)).Eval, a read whose hash indexes are derived for
// this call only. See BoundQuery.Eval.
func (p *PreparedQuery) Eval(ctx context.Context, db *Structure, opts ...EvalOption) (Answers, error) {
	return p.Bind(Borrow(db)).Eval(ctx, opts...)
}

// EvalTrace is Eval plus an execution trace of this one call: it is
// p.Bind(Borrow(db)).EvalTrace. See BoundQuery.EvalTrace.
func (p *PreparedQuery) EvalTrace(ctx context.Context, db *Structure, opts ...EvalOption) (Answers, *ExecTrace, error) {
	return p.Bind(Borrow(db)).EvalTrace(ctx, opts...)
}

// Bind pairs the prepared query with a database snapshot, yielding the
// query's read surface:
//
//	d, _, _ := engine.RegisterDB("social", structure) // index once
//	b := p.Bind(d)
//	ans, err := b.Eval(ctx)     // probe-only once the cache is warm
//	ok, err := b.EvalBool(ctx)
//	for t := range b.Answers(ctx) { … }
//
// A registered or Snapshot database owns persistent shared indexes —
// built on first use, then reused by every prepared query and every
// call that binds the same snapshot. A one-off structure reads through
// p.Bind(cqapprox.Borrow(s)) instead, whose indexes live for one call.
// Bind itself does no work; a BoundQuery is immutable and safe for
// concurrent use.
func (p *PreparedQuery) Bind(db *Database) *BoundQuery {
	return &BoundQuery{p: p, db: db}
}

// BoundQuery is a PreparedQuery bound to a Database snapshot: the
// fully static pairing of a compiled plan with data. Both halves are
// immutable, so a BoundQuery may serve concurrent reads from many
// goroutines. Every read resolves its options once into one request
// (PreparedQuery.read) and runs one of the plan's four read verbs on
// the snapshot.
type BoundQuery struct {
	p  *PreparedQuery
	db *Database
}

// Prepared returns the prepared query half of the binding.
func (b *BoundQuery) Prepared() *PreparedQuery { return b.p }

// Database returns the snapshot half of the binding.
func (b *BoundQuery) Database() *Database { return b.db }

// untraced drops the trace of a read whose method has no slot for it.
func untraced[T any](v T, _ *ExecTrace, err error) (T, error) { return v, err }

// eval is the binding's materialising read; traced is EvalTrace's.
func (b *BoundQuery) eval(ctx context.Context, opts []EvalOption, traced bool) (Answers, *ExecTrace, error) {
	r, err := b.p.read(opts)
	if err != nil {
		return nil, nil, err
	}
	r.Trace = traced
	return b.p.plan.Eval(ctx, b.db.snap, r)
}

// evalBool is the binding's Boolean read, which ignores the ordering
// knobs; traced is EvalBoolTrace's.
func (b *BoundQuery) evalBool(ctx context.Context, opts []EvalOption, traced bool) (bool, *ExecTrace, error) {
	r, _ := b.p.read(opts)
	r.Trace = traced
	return b.p.plan.Bool(ctx, b.db.snap, r)
}

// Eval evaluates the bound query, returning the deduplicated answer
// set. Only per-database work happens here: O(|D|·|Q'|) plus output
// cost for acyclic plans. Options select the per-call behavior:
// WithOrder/WithDescending sort the answers under the requested key
// (plans whose join forest admits the key stream it directly out of
// the reduced forest; others evaluate, sort and truncate — Explain
// reports the classification), WithLimit(k) returns only the first k
// answers of the order with early termination where the plan allows,
// and WithEvalParallelism overrides the worker budget for this call.
// Without options the full answer set arrives in the default sorted
// order.
func (b *BoundQuery) Eval(ctx context.Context, opts ...EvalOption) (Answers, error) {
	return untraced(b.eval(ctx, opts, false))
}

// EvalTrace is Eval plus an execution trace of this one call: the
// answers are identical (and the plan's cumulative counters advance
// exactly as for Eval); the trace additionally reports per-node rows
// in/out per semijoin pass, surviving rows per node, index builds and
// probes — only those the snapshot's persistent cache had not already
// absorbed —, per-phase wall times, and morsel/worker accounting when
// the evaluation ran parallel. Every option applies. A ranked call
// (WithOrder, WithDescending, WithLimit) whose key streams out of the
// join forest reports the bottom-up pass rooted at its first visit
// ("semijoin-down") and the ordered search ("ranked"); one that falls
// back reports the phases of the plain evaluation it sorts.
func (b *BoundQuery) EvalTrace(ctx context.Context, opts ...EvalOption) (Answers, *ExecTrace, error) {
	return b.eval(ctx, opts, true)
}

// EvalBool reports whether the bound query has at least one answer
// (a single semijoin pass for acyclic plans, O(|D|·|Q'|)).
// WithEvalParallelism applies; ordering options are meaningless for a
// Boolean result and are ignored.
func (b *BoundQuery) EvalBool(ctx context.Context, opts ...EvalOption) (bool, error) {
	return untraced(b.evalBool(ctx, opts, false))
}

// EvalBoolTrace is EvalBool plus an execution trace; the reduction
// stops at the bottom-up semijoin pass, exactly like EvalBool.
func (b *BoundQuery) EvalBoolTrace(ctx context.Context, opts ...EvalOption) (bool, *ExecTrace, error) {
	return b.evalBool(ctx, opts, true)
}

// Answers streams the distinct answers of the bound query one at a
// time without materialising the full result set — suitable for very
// large outputs:
//
//	for t := range p.Bind(cqapprox.Borrow(db)).Answers(ctx) {
//		process(t) // break any time
//	}
//
// Acyclic plans first run the Yannakakis semijoin reduction
// (O(|D|·|Q'|)) so the enumeration only touches tuples that can
// participate in an answer. Plain streams arrive in discovery order;
// WithOrder / WithDescending switch to the ranked pipeline and deliver
// the key order, and WithLimit(k) ends the stream after k answers
// (ordered when an order was requested, any-k otherwise). Iteration
// ends early on ctx cancellation; every delivered tuple is a correct
// answer regardless. To distinguish a cancelled (truncated) stream
// from an exhausted one — or to see an order-validation error — use
// AnswersErr.
func (b *BoundQuery) Answers(ctx context.Context, opts ...EvalOption) iter.Seq[Tuple] {
	seq, _ := b.AnswersErr(ctx, opts...)
	return seq
}

// AnswersErr is Answers plus a terminal-error accessor: call the
// returned function after the loop — nil means the enumeration ran to
// completion (or the consumer broke), a non-nil ErrCanceled-wrapped
// error means cancellation truncated it (and an ErrBadOrder-wrapped
// error reports invalid WithOrder variables, before any answer):
//
//	seq, errf := b.AnswersErr(ctx)
//	for t := range seq { process(t) }
//	if err := errf(); err != nil { /* truncated */ }
func (b *BoundQuery) AnswersErr(ctx context.Context, opts ...EvalOption) (iter.Seq[Tuple], func() error) {
	r, err := b.p.read(opts)
	if err != nil {
		return func(func(Tuple) bool) {}, func() error { return err }
	}
	return b.p.plan.Stream(ctx, b.db.snap, r)
}
