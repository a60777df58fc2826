// Package cqapprox reproduces Barceló, Libkin and Romero, "Efficient
// Approximations of Conjunctive Queries" (PODS 2012): computing
// approximations of conjunctive queries within tractable classes —
// acyclic queries, bounded treewidth TW(k), and bounded (generalized)
// hypertree width HTW(k)/GHTW(k) — together with the full substrate the
// paper builds on (homomorphisms, cores, containment, treewidth and
// hypertree-width decision procedures, and Yannakakis evaluation).
//
// A C-approximation of a query Q is a query Q' from the tractable
// class C that is maximally contained in Q: it returns only correct
// answers, and no other C-query agrees with Q more often. Replacing Q
// by Q' turns |D|^O(|Q|) evaluation into O(|D|·|Q'|) (acyclic) or
// O(|D|^{k+1}) (treewidth k).
//
// The expensive work — minimization and the NP-hard approximation
// search — is static: it depends only on the query, never on the data.
// The API is built around that split. An Engine prepares a query once
// (parse → minimize → approximate → plan) and caches the result; the
// returned PreparedQuery then evaluates cheaply on any number of
// databases, concurrently, with context cancellation and streaming
// answers.
//
// Quick start:
//
//	engine := cqapprox.NewEngine()
//	q := cqapprox.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
//
//	// Pay the NP-hard search once. p's approximation is guaranteed:
//	// p.Approx() ⊆ q, acyclic, and no acyclic query sits strictly
//	// between them.
//	p, err := engine.Prepare(ctx, q, cqapprox.TW(1))
//
//	// Execute many times, on many databases, from many goroutines.
//	answers, err := p.Eval(ctx, db)        // O(|db|·|Q'|) via Yannakakis
//	ok, err := p.EvalBool(ctx, db)         // answer existence
//	for t := range p.Answers(ctx, db) { …} // stream without materialising
//
//	// Preparing an equivalent query again is a cache hit: no search.
//	p2, _ := engine.Prepare(ctx, cqapprox.MustParse("Q(a) :- E(a,b), E(b,c), E(c,a)"), cqapprox.TW(1))
//	_ = engine.CacheStats().Hits // 1
//
// The data side mirrors the split: register a database once and every
// evaluation probes the snapshot's persistent shared indexes instead
// of re-indexing per call (copy-on-write updates fork new versions):
//
//	d, _, _ := engine.RegisterDB("social", db)
//	ans, err := p.Bind(d).Eval(ctx) // probe-only once warm
//
// Errors are typed: errors.Is against ErrCanceled, ErrBudgetExceeded,
// ErrNotInClass, ErrCountOverflow; parse errors carry positions
// (ParseError).
//
// The package-level free functions (Approximate, Eval, …) remain as
// thin wrappers over a shared default Engine. They are convenient for
// scripts and tests; long-running services should hold their own
// Engine and PreparedQuery values instead, which adds cancellation,
// typed errors and cache control.
//
// See DESIGN.md for the architecture, the package inventory, and the
// experiment index.
package cqapprox

import (
	"context"

	"cqapprox/internal/core"
	"cqapprox/internal/cq"
	"cqapprox/internal/eval"
	"cqapprox/internal/hom"
	"cqapprox/internal/htw"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
	"cqapprox/internal/tw"
)

// Query is a conjunctive query in rule form (see Parse).
type Query = cq.Query

// Atom is a single relational atom of a query body.
type Atom = cq.Atom

// Structure is a finite relational structure: both databases and
// tableaux of queries.
type Structure = relstr.Structure

// Tuple is a database tuple / query answer.
type Tuple = relstr.Tuple

// Answers is a deduplicated, sorted answer set.
type Answers = eval.Answers

// IndexStats snapshots the indexed join runtime's counters for one
// prepared query (see PreparedQuery.IndexStats) or, summed across the
// cache, for a whole engine (see CacheStats.Indexes).
type IndexStats = eval.IndexStats

// Class is a tractable class of CQs (TW(k), AC, HTW(k), GHTW(k)).
type Class = core.Class

// Options tunes the approximation search; see DefaultOptions.
type Options = core.Options

// TableauKind is the Theorem 5.1 trichotomy classification.
type TableauKind = core.TableauKind

// Trichotomy kinds (Theorem 5.1).
const (
	NonBipartite        = core.NonBipartite
	BipartiteUnbalanced = core.BipartiteUnbalanced
	BipartiteBalanced   = core.BipartiteBalanced
)

// NewStructure returns an empty relational structure.
func NewStructure() *Structure { return relstr.New() }

// Parse reads a query in rule notation, e.g.
// "Q(x) :- E(x,y), E(y,z), E(z,x)".
func Parse(src string) (*Query, error) { return cq.Parse(src) }

// MustParse is Parse panicking on error.
func MustParse(src string) *Query { return cq.MustParse(src) }

// FromTableau converts a structure with a distinguished tuple into the
// CQ whose tableau it is (the converse of Query.Tableau).
func FromTableau(s *Structure, dist []int) *Query { return cq.FromTableau(s, dist, nil) }

// TW returns the class of queries of treewidth ≤ k (graph-based).
func TW(k int) Class { return core.TW(k) }

// AC returns the class of acyclic queries (hypergraph-based).
func AC() Class { return core.AC() }

// HTW returns the class of queries of hypertree width ≤ k.
func HTW(k int) Class { return core.HTW(k) }

// GHTW returns the class of queries of generalized hypertree width ≤ k.
func GHTW(k int) Class { return core.GHTW(k) }

// DefaultOptions returns the documented approximation-search defaults.
func DefaultOptions() Options { return core.DefaultOptions() }

// Approximate returns one minimized C-approximation of q.
//
// It is a thin wrapper over the default Engine: the search result is
// cached, so repeated calls with equivalent queries skip the search.
// Services should prefer an explicit Engine and PreparedQuery, which
// add context cancellation and cache control.
func Approximate(q *Query, c Class, opt Options) (*Query, error) {
	p, err := defaultEngine.PrepareOpt(context.Background(), q, c, opt)
	if err != nil {
		return nil, err
	}
	return p.Approx(), nil
}

// ApproximateCtx is Approximate under a context: cancellation aborts
// the Bell-number search with an ErrCanceled-wrapped error instead of
// running it to completion.
func ApproximateCtx(ctx context.Context, q *Query, c Class, opt Options) (*Query, error) {
	p, err := defaultEngine.PrepareOpt(ctx, q, c, opt)
	if err != nil {
		return nil, err
	}
	return p.Approx(), nil
}

// Approximations returns all minimized C-approximations of q up to
// equivalence (the paper's C-APPR_min(Q)). Like Approximate, it is a
// cached wrapper over the default Engine.
func Approximations(q *Query, c Class, opt Options) ([]*Query, error) {
	p, err := defaultEngine.PrepareOpt(context.Background(), q, c, opt)
	if err != nil {
		return nil, err
	}
	return p.Approximations(), nil
}

// ApproximationsCtx is Approximations under a context; see
// ApproximateCtx.
func ApproximationsCtx(ctx context.Context, q *Query, c Class, opt Options) ([]*Query, error) {
	p, err := defaultEngine.PrepareOpt(ctx, q, c, opt)
	if err != nil {
		return nil, err
	}
	return p.Approximations(), nil
}

// CountApproximations returns |C-APPR_min(q)|.
func CountApproximations(q *Query, c Class, opt Options) (int, error) {
	p, err := defaultEngine.PrepareOpt(context.Background(), q, c, opt)
	if err != nil {
		return 0, err
	}
	return len(p.approxes), nil
}

// IsApproximation decides whether cand is a C-approximation of q
// (the DP-complete decision problem of Section 4.3; exact for
// graph-based classes).
func IsApproximation(q, cand *Query, c Class, opt Options) (bool, error) {
	return core.IsApproximation(q, cand, c, opt)
}

// Overapproximate returns one minimized C-overapproximation of q: a
// C-query minimally containing q (all of q's answers plus possibly
// extra ones) — the dual notion the paper's conclusions pose as future
// work, here solved over atom-subset candidates (complete for
// graph-based classes).
func Overapproximate(q *Query, c Class, opt Options) (*Query, error) {
	return core.Overapproximate(q, c, opt)
}

// Overapproximations returns all minimized C-overapproximations of q up
// to equivalence (see Overapproximate).
func Overapproximations(q *Query, c Class, opt Options) ([]*Query, error) {
	return core.Overapproximations(q, c, opt)
}

// IsOverapproximation decides whether cand is a C-overapproximation of
// q (exact for graph-based classes).
func IsOverapproximation(q, cand *Query, c Class, opt Options) (bool, error) {
	return core.IsOverapproximation(q, cand, c, opt)
}

// Trivial returns the paper's Q_trivial for q's schema and head arity.
func Trivial(q *Query) *Query { return core.Trivial(q) }

// TrivialBipartite returns Q_triv2 (tableau K_2^↔).
func TrivialBipartite() *Query { return core.TrivialBipartite() }

// ClassifyGraphTableau classifies a graph query's tableau per the
// trichotomy of Theorem 5.1.
func ClassifyGraphTableau(q *Query) (TableauKind, error) {
	return core.ClassifyGraphTableau(q)
}

// HasLoopFreeTWkApproximation implements the Theorem 5.8/5.10
// dichotomy via (k+1)-colorability.
func HasLoopFreeTWkApproximation(q *Query, k int) (bool, error) {
	return core.HasLoopFreeTWkApproximation(q, k)
}

// EquivalentToClass reports whether q is equivalent to some query of
// the class, via the approximation oracle (Proposition 4.11).
func EquivalentToClass(q *Query, c Class, opt Options) (bool, error) {
	return core.EquivalentToClass(q, c, opt)
}

// Contained reports q1 ⊆ q2 (Chandra–Merlin).
func Contained(q1, q2 *Query) bool { return hom.Contained(q1, q2) }

// Equivalent reports q1 ≡ q2.
func Equivalent(q1, q2 *Query) bool { return hom.Equivalent(q1, q2) }

// Minimize returns the canonical minimal query equivalent to q (its
// tableau is the core of T_q).
func Minimize(q *Query) *Query { return hom.Minimize(q) }

// IsMinimized reports whether q's tableau is a core.
func IsMinimized(q *Query) bool { return hom.IsMinimized(q) }

// Eval evaluates q on db with the best applicable engine (Yannakakis
// for acyclic queries, backtracking otherwise).
//
// It is a thin wrapper over the default Engine: the query's plan (and
// minimization) is prepared and cached on first use. Services should
// prefer Engine.PrepareExact and PreparedQuery.Eval, which add context
// cancellation and streaming.
func Eval(q *Query, db *Structure) Answers {
	p, err := defaultEngine.PrepareExact(context.Background(), q)
	if err != nil {
		// Legacy compatibility: the free function predates validation
		// and never rejected a query — keep evaluating directly when
		// Prepare refuses one. Engine users get the typed error instead.
		return eval.Eval(q, db)
	}
	// Plan evaluation only errors through ctx, which Background never
	// cancels.
	ans, _ := p.Eval(context.Background(), db)
	return ans
}

// EvalCtx is Eval under a context, with errors surfaced instead of
// swallowed: preparation failures (validation, cancellation) and
// evaluation cancellation come back typed (errors.Is against
// ErrCanceled etc.) where Eval silently drops them for legacy
// compatibility. Like Eval it runs on the default Engine's cache.
func EvalCtx(ctx context.Context, q *Query, db *Structure) (Answers, error) {
	p, err := defaultEngine.PrepareExact(ctx, q)
	if err != nil {
		return nil, err
	}
	return p.Eval(ctx, db)
}

// EvalBool evaluates a Boolean query (or answer-existence). Like Eval,
// it is a cached wrapper over the default Engine.
func EvalBool(q *Query, db *Structure) bool {
	p, err := defaultEngine.PrepareExact(context.Background(), q)
	if err != nil {
		// Legacy compatibility — see Eval.
		return eval.EvalBool(q, db)
	}
	ok, _ := p.EvalBool(context.Background(), db)
	return ok
}

// EvalBoolCtx is EvalBool under a context, with errors surfaced; see
// EvalCtx.
func EvalBoolCtx(ctx context.Context, q *Query, db *Structure) (bool, error) {
	p, err := defaultEngine.PrepareExact(ctx, q)
	if err != nil {
		return false, err
	}
	return p.EvalBool(ctx, db)
}

// NaiveEval evaluates q by backtracking search (|db|^O(|q|)).
func NaiveEval(q *Query, db *Structure) Answers { return eval.Naive(q, db) }

// NaiveEvalCtx is NaiveEval under a context.
func NaiveEvalCtx(ctx context.Context, q *Query, db *Structure) (Answers, error) {
	return eval.NaiveCtx(ctx, q, db)
}

// Treewidth returns the treewidth of q (of its Gaifman graph).
func Treewidth(q *Query) int { return tw.StructureTreewidth(q.Tableau().S) }

// IsAcyclic reports α-acyclicity of q's hypergraph.
func IsAcyclic(q *Query) bool { return hypergraph.AcyclicStructure(q.Tableau().S) }

// HypertreeWidth returns the hypertree width of q's hypergraph.
func HypertreeWidth(q *Query) int { return htw.StructureWidth(q.Tableau().S) }
