package core

import (
	"context"
	"fmt"
	"sort"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
)

// Options tunes the approximation search.
type Options struct {
	// MaxVars bounds the number of variables of the input query; the
	// quotient space has Bell(n) elements, so the search is refused
	// beyond this bound rather than hanging. Default 10.
	MaxVars int

	// MaxExtraAtoms applies to hypergraph-based classes only: quotients
	// of T_Q may be extended with up to this many additional atoms over
	// the quotient's variables (plus fresh variables, see FreshVars).
	// Acyclic approximations may genuinely need extra atoms
	// (Example 6.6's Q'_3), because acyclic hypergraphs are not closed
	// under subhypergraphs. Default 1. Set 0 to search quotients only.
	MaxExtraAtoms int

	// FreshVars is the number of fresh variables each extra atom may
	// use (at most arity−1 positions of an extra atom can be fresh, per
	// Claim 6.2's renamed extension tuples). Default 0.
	FreshVars int
}

// DefaultOptions returns the documented defaults.
func DefaultOptions() Options {
	return Options{MaxVars: 10, MaxExtraAtoms: 1, FreshVars: 0}
}

// WithDefaults returns o with zero-valued fields replaced by the
// documented defaults (currently only MaxVars). It is the single
// normalization rule shared by the search entry points and the
// engine cache key.
func (o Options) WithDefaults() Options {
	if o.MaxVars == 0 {
		o.MaxVars = 10
	}
	return o
}

// Result bundles approximations with bookkeeping from the search, for
// cost reporting (Cor 4.3's single-exponential bound is about exactly
// this count).
type Result struct {
	Queries []*cq.Query // minimized approximations, one per class
	// CandidatesInspected counts the distinct in-class candidate
	// tableaux that entered front maintenance (quotients plus
	// extensions that passed the class test). Coarsenings of in-class
	// quotients are skipped unseen and not counted.
	CandidatesInspected int
}

// ApproximationsWithStats is Approximations, additionally reporting how
// many candidates the search inspected.
func ApproximationsWithStats(q *cq.Query, c Class, opt Options) (*Result, error) {
	return ApproximationsWithStatsCtx(nil, q, c, opt)
}

// ApproximationsWithStatsCtx is ApproximationsWithStats under a
// context: the Bell-number candidate sweep polls ctx between candidates
// (and the homomorphism searches poll it internally), returning a
// cqerr.ErrCanceled-wrapped error when it expires.
func ApproximationsWithStatsCtx(ctx context.Context, q *cq.Query, c Class, opt Options) (*Result, error) {
	front, inspected, err := approxFront(ctx, q, c, opt, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{CandidatesInspected: inspected}
	for _, p := range front {
		res.Queries = append(res.Queries, queryFromPointed(q, p))
	}
	return res, nil
}

// Approximations returns all C-approximations of q up to equivalence,
// each minimized (its tableau is a core) — the paper's
// C-APPR_min(Q). For graph-based classes the result is exact and
// complete (Theorem 4.1: quotients of T_Q form a complete candidate
// space). For hypergraph-based classes the candidate space is quotients
// plus bounded atom extensions (Options.MaxExtraAtoms/FreshVars);
// results are exact approximations within that space, which covers all
// the paper's examples; raise the bounds toward Claim 6.2's
// n+(m−1)²nᵐ⁻¹ variables for completeness at exponential cost.
func Approximations(q *cq.Query, c Class, opt Options) ([]*cq.Query, error) {
	return ApproximationsCtx(nil, q, c, opt)
}

// ApproximationsCtx is Approximations under a context.
func ApproximationsCtx(ctx context.Context, q *cq.Query, c Class, opt Options) ([]*cq.Query, error) {
	front, _, err := approxFront(ctx, q, c, opt, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*cq.Query, len(front))
	for i, p := range front {
		out[i] = queryFromPointed(q, p)
	}
	return out, nil
}

// Approximate returns one C-approximation of q (minimized). It is the
// function A(Q) of Proposition 4.11.
func Approximate(q *cq.Query, c Class, opt Options) (*cq.Query, error) {
	return ApproximateCtx(nil, q, c, opt)
}

// ApproximateCtx is Approximate under a context.
func ApproximateCtx(ctx context.Context, q *cq.Query, c Class, opt Options) (*cq.Query, error) {
	front, _, err := approxFront(ctx, q, c, opt, nil)
	if err != nil {
		return nil, err
	}
	if len(front) == 0 {
		return nil, fmt.Errorf("core: no %s-query is contained in %v: %w", c.Name(), q, cqerr.ErrNotInClass)
	}
	return queryFromPointed(q, front[0]), nil
}

// CountApproximations returns |C-APPR_min(q)| within the candidate
// space: the number of pairwise non-equivalent C-approximations.
func CountApproximations(q *cq.Query, c Class, opt Options) (int, error) {
	front, _, err := approxFront(nil, q, c, opt, nil)
	if err != nil {
		return 0, err
	}
	return len(front), nil
}

// IsApproximation decides whether cand is a C-approximation of q,
// searching the same candidate space for a strictly better C-query
// (the DP decision problem of Section 4.3: an NP containment check plus
// a coNP no-better-witness check). Exact for graph-based classes.
func IsApproximation(q, cand *cq.Query, c Class, opt Options) (bool, error) {
	opt = opt.WithDefaults()
	if n := q.NumVars(); n > opt.MaxVars {
		return false, BudgetError(n, opt.MaxVars)
	}
	ct := cand.Tableau()
	if !c.Contains(ct.S) {
		return false, nil
	}
	if !hom.Contained(cand, q) {
		return false, nil
	}
	candP := hom.Compile(hom.Pointed{S: ct.S, Dist: ct.Dist})
	maps := func(a, b *hom.Compiled) bool {
		ok, _ := hom.MapsCompiledCtx(nil, a, b)
		return ok
	}
	better := false
	err := forEachCandidate(nil, q.Tableau(), c, opt, nil, func(p *flatCand) bool {
		// cand ⊂ X ⊆ q ⟺ T_X → T_cand and T_cand ↛ T_X.
		x := hom.CompileTarget(&p.Dense, p.dist).WithSource()
		if maps(x, candP) && !maps(candP, x) {
			better = true
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return !better, nil
}

// BudgetError builds the typed over-budget error for a query with n
// variables against limit max; the engine reuses it so the message and
// sentinel stay in one place.
func BudgetError(n, max int) error {
	return fmt.Errorf("core: query has %d variables; limit is %d (raise Options.MaxVars): %w", n, max, cqerr.ErrBudgetExceeded)
}

// approxFront generates the candidate space and keeps its →-minimal
// elements (one core representative per equivalence class). A non-nil
// ctx cancels the sweep between candidates and inside the homomorphism
// searches. order is the element order of the partition enumeration
// (nil: ascending); the result does not depend on it.
func approxFront(ctx context.Context, q *cq.Query, c Class, opt Options, order []int) ([]hom.Pointed, int, error) {
	opt = opt.WithDefaults()
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	if n := q.NumVars(); n > opt.MaxVars {
		return nil, 0, BudgetError(n, opt.MaxVars)
	}
	// Fast path: a query already in C is its own unique approximation —
	// every other candidate is contained in it, hence dominated. The
	// core of a class member stays in the class (cores are images of
	// retractions, so every covering hyperedge keeps covering its
	// image); the membership re-check below is a defensive guard.
	tb := q.Tableau()
	if c.Contains(tb.S) {
		coreS, retract, err := hom.CoreCtx(ctx, tb.S, tb.Dist)
		if err != nil {
			return nil, 0, err
		}
		if c.Contains(coreS) {
			return []hom.Pointed{{S: coreS, Dist: mapDist(tb.Dist, retract)}}, 1, nil
		}
		return []hom.Pointed{{S: tb.S, Dist: tb.Dist}}, 1, nil
	}
	f := &front{ctx: ctx}
	err := forEachCandidate(ctx, tb, c, opt, order, f.offer)
	if f.err != nil {
		return nil, 0, f.err
	}
	if err != nil {
		return nil, 0, err
	}
	out := make([]hom.Pointed, len(f.members))
	for i, m := range f.members {
		out[i] = m.Pointed
	}
	sortFront(out)
	return out, f.inspected, nil
}

// front is the antichain of →-minimal candidates seen so far, one per
// equivalence class, each compiled once for the homomorphism tests of
// every later candidate.
type front struct {
	ctx       context.Context
	members   []*member
	inspected int
	err       error
}

// member is a front element, compiled for the homomorphism tests, with
// its lazily rendered sort key.
type member struct {
	hom.Pointed
	c   *hom.Compiled
	key string
}

// less is sortFront's order, and the representative rule: of two
// equivalent candidates the front keeps the lesser, so the result does
// not depend on the order the candidates arrive in.
func (m *member) less(o *member) bool {
	if a, b := m.S.NumFacts(), o.S.NumFacts(); a != b {
		return a < b
	}
	return m.sortKey() < o.sortKey()
}

func (m *member) sortKey() string {
	if m.key == "" {
		m.key = sortKey(m.Pointed)
	}
	return m.key
}

// sortFront orders a front deterministically (by size, then
// rendering) so results are stable across runs.
func sortFront(front []hom.Pointed) {
	sort.Slice(front, func(i, j int) bool {
		a, b := front[i], front[j]
		if a.S.NumFacts() != b.S.NumFacts() {
			return a.S.NumFacts() < b.S.NumFacts()
		}
		return sortKey(a) < sortKey(b)
	})
}

// sortKey is the rendering sortFront orders equal-sized tableaux by.
func sortKey(p hom.Pointed) string {
	return p.S.String() + relstr.Tuple(p.Dist).Key()
}

// offer runs front maintenance for one candidate; it returns false to
// stop the sweep once a search was cancelled. A candidate maps to and
// from exactly what its core does, so the domination scan runs on the
// candidate itself, compiled as a target only. It is compiled as a
// source once a member maps into it, and built as a Structure only
// once it survives the scan or ties with a member, to take its core.
func (f *front) offer(c *flatCand) bool {
	f.inspected++
	// The Maps searches poll ctx too: they are worst-case exponential,
	// so cancellation must reach inside them, not just between
	// candidates.
	maps := func(a, b *hom.Compiled) bool {
		ok, err := hom.MapsCompiledCtx(f.ctx, a, b)
		if err != nil && f.err == nil {
			f.err = err
		}
		return ok
	}
	raw := hom.CompileTarget(&c.Dense, c.dist)
	for i, y := range f.members {
		if maps(y.c, raw) {
			// y is ⊆-better or equivalent: the candidate adds nothing,
			// but an equivalent one may be the lesser representative.
			// It is equivalent only if it holds a copy of y, its core.
			if c.numFacts() < y.S.NumFacts() {
				return f.err == nil
			}
			if raw = raw.WithSource(); maps(raw, y.c) {
				// The candidate's core is as large as y, so a candidate
				// no larger than y is its own core.
				p := c.pointed()
				cand := &member{Pointed: p, c: raw}
				if c.numFacts() > y.S.NumFacts() {
					cand = f.core(p, raw)
				}
				if cand != nil && cand.less(y) {
					if cand.c == nil {
						cand.c = hom.Compile(cand.Pointed)
					}
					f.members[i] = cand
				}
			}
			return f.err == nil
		}
		if f.err != nil {
			return false
		}
	}
	cand := f.core(c.pointed(), raw)
	if cand == nil {
		return false
	}
	if cand.c == nil {
		cand.c = hom.Compile(cand.Pointed)
	}
	// No member maps into the candidate, so cand ⥿ y reduces to
	// cand → y.
	kept := f.members[:0]
	for _, y := range f.members {
		if !maps(cand.c, y.c) {
			kept = append(kept, y)
		}
		if f.err != nil {
			return false
		}
	}
	f.members = append(kept, cand)
	return true
}

// core returns the core of p as a prospective member, or nil after
// recording a cancellation. When p is its own core the member takes
// raw, p compiled, as its compiled form; otherwise it is not compiled
// yet.
func (f *front) core(p hom.Pointed, raw *hom.Compiled) *member {
	coreS, retract, err := hom.CoreCtx(f.ctx, p.S, p.Dist)
	if err != nil {
		if f.err == nil {
			f.err = err
		}
		return nil
	}
	m := &member{Pointed: hom.Pointed{S: coreS, Dist: mapDist(p.Dist, retract)}}
	// A retraction avoiding an element drops the facts holding it.
	if coreS.NumFacts() == p.S.NumFacts() {
		m.c = raw.WithSource()
	}
	return m
}

// mapDist applies a retraction to a distinguished tuple.
func mapDist(dist []int, f map[int]int) []int {
	out := make([]int, len(dist))
	for i, d := range dist {
		out[i] = f[d]
	}
	return out
}

// queryFromPointed renders a pointed tableau as a minimized query named
// after q.
func queryFromPointed(q *cq.Query, p hom.Pointed) *cq.Query {
	out := cq.FromTableau(p.S, p.Dist, nil)
	out.Name = q.Name + "_approx"
	return out
}
