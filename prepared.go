package cqapprox

import (
	"context"
	"fmt"
	"iter"

	"cqapprox/internal/eval"
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

// budget resolves one call's worker budget: WithEvalParallelism when
// given, otherwise the default.
func (p *PreparedQuery) budget(opts []EvalOption) int {
	cfg := optConfigOf(opts)
	return cfg.parallelism(p.Parallelism())
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

// CacheHit reports whether the Prepare that returned this value was
// served from the engine's cache (including being handed an in-flight
// leader's result) instead of running the pipeline itself. It mirrors
// exactly the hit CacheStats recorded for that Prepare, even under
// concurrent preparation of the same key.
func (p *PreparedQuery) CacheHit() bool { return p.fromCache }

// PlanMode names the evaluation strategy the plan selected
// ("yannakakis" or "naive").
func (p *PreparedQuery) PlanMode() string { return p.plan.Mode().String() }

// IndexStats returns the cumulative indexed-runtime counters of this
// prepared query's plan: hash indexes built over databases, rows
// driven through index probes, and evaluations run. The plan is shared
// across every cache hit of the same key, so the counters aggregate
// all callers — the per-plan view of what Engine.CacheStats sums over
// the whole cache.
func (p *PreparedQuery) IndexStats() IndexStats { return p.plan.IndexStats() }

// rankSpec resolves the call's ordering options against the query's
// head: each WithOrder name must be a distinct head variable of the
// original query (repeated head variables resolve to their first
// position — later repeats compare equal anyway). The error wraps
// ErrBadOrder.
func (p *PreparedQuery) rankSpec(cfg *optConfig) (eval.RankSpec, error) {
	spec := eval.RankSpec{Desc: cfg.desc, Limit: cfg.limit}
	if len(cfg.order) == 0 {
		return spec, nil
	}
	head := p.src.Head
	seen := map[string]bool{}
	for _, name := range cfg.order {
		if seen[name] {
			return spec, fmt.Errorf("%w: %q named twice", ErrBadOrder, name)
		}
		seen[name] = true
		pos := -1
		for i, h := range head {
			if h == name {
				pos = i
				break
			}
		}
		if pos == -1 {
			return spec, fmt.Errorf("%w: %q is not a head variable of %s", ErrBadOrder, name, p.src.Name)
		}
		spec.Order = append(spec.Order, pos)
	}
	return spec, nil
}

// evalOn dispatches one materialising evaluation: ranked (ordered
// and/or limited — limit-only uses the head's natural ascending key,
// so early termination still applies) or the plain full evaluation.
func (p *PreparedQuery) evalOn(ctx context.Context, src eval.Source, opts []EvalOption) (Answers, error) {
	cfg := optConfigOf(opts)
	par := cfg.parallelism(p.Parallelism())
	if !cfg.ranked() {
		return p.plan.EvalOn(ctx, src, par)
	}
	spec, err := p.rankSpec(&cfg)
	if err != nil {
		return nil, err
	}
	return p.plan.EvalRankedOn(ctx, src, par, spec)
}

// answersOn dispatches one streaming evaluation: explicitly ordered
// streams go through the ranked pipeline; limit-only streams keep the
// plain enumeration's first-answer latency and simply stop after k
// answers (an unordered prefix).
func (p *PreparedQuery) answersOn(ctx context.Context, src eval.Source, opts []EvalOption) (iter.Seq[Tuple], func() error) {
	cfg := optConfigOf(opts)
	par := cfg.parallelism(p.Parallelism())
	if cfg.ordered() {
		spec, err := p.rankSpec(&cfg)
		if err != nil {
			return errSeq(err)
		}
		return p.plan.StreamRankedOn(ctx, src, par, spec)
	}
	seq, errf := p.plan.StreamOnErr(ctx, src, par)
	if cfg.limit > 0 {
		seq = truncateSeq(seq, cfg.limit)
	}
	return seq, errf
}

// errSeq is the empty stream carrying a terminal error (option
// validation failures on the streaming entry points).
func errSeq(err error) (iter.Seq[Tuple], func() error) {
	return func(func(Tuple) bool) {}, func() error { return err }
}

// truncateSeq stops a stream after the first k tuples.
func truncateSeq(seq iter.Seq[Tuple], k int) iter.Seq[Tuple] {
	return func(yield func(Tuple) bool) {
		n := 0
		for t := range seq {
			if !yield(t) {
				return
			}
			if n++; n >= k {
				return
			}
		}
	}
}

// Eval evaluates the prepared (approximated) query on db, returning
// the deduplicated answer set. Only per-database work happens here:
// O(|D|·|Q'|) plus output cost for acyclic plans. Options select the
// per-call behavior: WithOrder/WithDescending sort the answers under
// the requested key (plans whose join forest admits the key stream it
// directly out of the reduced forest; others evaluate, sort and
// truncate — Explain reports the classification), WithLimit(k) returns
// only the first k answers of the order with early termination where
// the plan allows, and WithEvalParallelism overrides the worker budget
// for this call. Without options the full answer set arrives in the
// default sorted order.
func (p *PreparedQuery) Eval(ctx context.Context, db *Structure, opts ...EvalOption) (Answers, error) {
	return p.evalOn(ctx, eval.NewSource(db), opts)
}

// EvalBool reports whether the prepared query has at least one answer
// on db. For acyclic plans this is a single semijoin pass, O(|D|·|Q'|).
// WithEvalParallelism applies; ordering options are meaningless for a
// Boolean result and are ignored.
func (p *PreparedQuery) EvalBool(ctx context.Context, db *Structure, opts ...EvalOption) (bool, error) {
	return p.plan.EvalBoolOn(ctx, eval.NewSource(db), p.budget(opts))
}

// Answers streams the distinct answers of the prepared query on db one
// at a time without materialising the full result set — suitable for
// very large outputs:
//
//	for t := range p.Answers(ctx, db) {
//		process(t) // break any time
//	}
//
// Acyclic plans first run the Yannakakis semijoin reduction (O(|D|·|Q'|))
// so the enumeration only touches tuples that can participate in an
// answer. Plain streams arrive in discovery order; WithOrder /
// WithDescending switch to the ranked pipeline and deliver the key
// order, and WithLimit(k) ends the stream after k answers (ordered
// when an order was requested, any-k otherwise). Iteration ends early
// on ctx cancellation; every delivered tuple is a correct answer
// regardless. To distinguish a cancelled (truncated) stream from an
// exhausted one — or to see an order-validation error — use
// AnswersErr.
func (p *PreparedQuery) Answers(ctx context.Context, db *Structure, opts ...EvalOption) iter.Seq[Tuple] {
	seq, _ := p.answersOn(ctx, eval.NewSource(db), opts)
	return seq
}

// AnswersErr is Answers plus a terminal-error accessor: call the
// returned function after the loop — nil means the enumeration ran to
// completion (or the consumer broke), a non-nil ErrCanceled-wrapped
// error means cancellation truncated it (and an ErrBadOrder-wrapped
// error reports invalid WithOrder variables, before any answer):
//
//	seq, errf := p.AnswersErr(ctx, db)
//	for t := range seq { process(t) }
//	if err := errf(); err != nil { /* truncated */ }
func (p *PreparedQuery) AnswersErr(ctx context.Context, db *Structure, opts ...EvalOption) (iter.Seq[Tuple], func() error) {
	return p.answersOn(ctx, eval.NewSource(db), opts)
}

// Bind pairs the prepared query with a database snapshot, yielding the
// evaluation surface over the snapshot's persistent shared indexes:
//
//	d, _, _ := engine.RegisterDB("social", structure) // index once
//	b := p.Bind(d)
//	ans, err := b.Eval(ctx)     // probe-only once the cache is warm
//	ok, err := b.EvalBool(ctx)
//	for t := range b.Answers(ctx) { … }
//
// Where Eval(ctx, *Structure) re-derives hash indexes per call, a
// bound evaluation probes indexes owned by the snapshot — built on
// first use, then reused by every prepared query and every call that
// binds the same snapshot. Bind itself does no work; a BoundQuery is
// immutable and safe for concurrent use.
func (p *PreparedQuery) Bind(db *Database) *BoundQuery {
	return &BoundQuery{p: p, db: db}
}

// BoundQuery is a PreparedQuery bound to a Database snapshot: the
// fully static pairing of a compiled plan with indexed data. Both
// halves are immutable, so a BoundQuery may serve concurrent
// evaluations from many goroutines. Evaluations run through the same
// unified executor as the unbound forms — the only difference is the
// storage backend: views and hash indexes come from the snapshot's
// persistent shared cache instead of being derived per call.
type BoundQuery struct {
	p  *PreparedQuery
	db *Database
}

// Prepared returns the prepared query half of the binding.
func (b *BoundQuery) Prepared() *PreparedQuery { return b.p }

// Database returns the snapshot half of the binding.
func (b *BoundQuery) Database() *Database { return b.db }

// source returns the snapshot-backed storage backend of the binding.
func (b *BoundQuery) source() eval.Source {
	return eval.NewSnapshotSource(b.db.snap)
}

// Eval evaluates the bound query, returning the deduplicated answer
// set — identical to p.Eval against the equivalent structure, minus
// the per-call index builds. The same EvalOption surface applies; see
// PreparedQuery.Eval.
func (b *BoundQuery) Eval(ctx context.Context, opts ...EvalOption) (Answers, error) {
	return b.p.evalOn(ctx, b.source(), opts)
}

// EvalBool reports whether the bound query has at least one answer
// (a single probe-only semijoin pass for acyclic plans).
// WithEvalParallelism applies; ordering options are ignored.
func (b *BoundQuery) EvalBool(ctx context.Context, opts ...EvalOption) (bool, error) {
	return b.p.plan.EvalBoolOn(ctx, b.source(), b.p.budget(opts))
}

// Answers streams the distinct answers of the bound query; see
// PreparedQuery.Answers for the contract and option behavior.
func (b *BoundQuery) Answers(ctx context.Context, opts ...EvalOption) iter.Seq[Tuple] {
	seq, _ := b.p.answersOn(ctx, b.source(), opts)
	return seq
}

// AnswersErr is Answers plus the terminal-error accessor; see
// PreparedQuery.AnswersErr.
func (b *BoundQuery) AnswersErr(ctx context.Context, opts ...EvalOption) (iter.Seq[Tuple], func() error) {
	return b.p.answersOn(ctx, b.source(), opts)
}
