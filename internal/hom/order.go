package hom

import (
	"context"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// A Pointed structure is a structure with a distinguished tuple: the
// objects of the paper's homomorphism preorder (tableaux of CQs).
type Pointed struct {
	S    *relstr.Structure
	Dist []int
}

// Maps reports whether (a, ā) → (b, b̄): a homomorphism from a.S to b.S
// sending a.Dist pointwise to b.Dist. Both tuples must have the same
// length.
func Maps(a, b Pointed) bool {
	ok, _ := MapsCtx(nil, a, b)
	return ok
}

// MapsCtx is Maps under a context.
func MapsCtx(ctx context.Context, a, b Pointed) (bool, error) {
	pre, ok := distMap(a.Dist, b.Dist)
	if !ok {
		return false, nil
	}
	return ExistsCtx(ctx, a.S, b.S, pre)
}

// distMap is the partial map sending ā to b̄ pointwise, or false if
// the tuples differ in length or ā repeats an element b̄ does not.
func distMap(a, b []int) (map[int]int, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	pre := make(map[int]int, len(a))
	for i, d := range a {
		if w, ok := pre[d]; ok && w != b[i] {
			return nil, false
		}
		pre[d] = b[i]
	}
	return pre, true
}

// Compiled is a pointed structure prepared once for many Maps tests on
// either side: its atoms and co-occurrence lists as a source, its
// per-position tuple indexes as a target. It holds S by reference, so
// S must not change after Compile.
type Compiled struct {
	Pointed
	src *source
	tgt *target
}

// Compile prepares p for MapsCompiledCtx.
func Compile(p Pointed) *Compiled {
	c := &Compiled{Pointed: p, src: compileSource(p.S), tgt: newTarget(p.S)}
	// Index every relation now, so later searches only read the target.
	for _, rel := range p.S.Relations() {
		c.tgt.index(rel)
	}
	return c
}

// MapsCompiledCtx is MapsCtx over compiled operands.
func MapsCompiledCtx(ctx context.Context, a, b *Compiled) (bool, error) {
	pre, ok := distMap(a.Dist, b.Dist)
	if !ok {
		return false, nil
	}
	p := newProblem(a.src, b.tgt, nil)
	p.ctx = ctx
	_, ok, err := p.find(pre)
	return ok, err
}

// Equivalentp reports homomorphic equivalence of pointed structures:
// maps in both directions.
func Equivalentp(a, b Pointed) bool { return Maps(a, b) && Maps(b, a) }

// TableauOf returns the pointed structure of q's tableau.
func TableauOf(q *cq.Query) Pointed {
	tb := q.Tableau()
	return Pointed{S: tb.S, Dist: tb.Dist}
}

// Contained reports q1 ⊆ q2 (answers of q1 are always a subset of
// answers of q2). By Chandra–Merlin, q1 ⊆ q2 iff (T_{q2}, x̄2) →
// (T_{q1}, x̄1). Queries with different head arities are incomparable.
func Contained(q1, q2 *cq.Query) bool {
	if len(q1.Head) != len(q2.Head) {
		return false
	}
	return Maps(TableauOf(q2), TableauOf(q1))
}

// ProperlyContained reports q1 ⊂ q2.
func ProperlyContained(q1, q2 *cq.Query) bool {
	return Contained(q1, q2) && !Contained(q2, q1)
}

// Equivalent reports q1 ≡ q2 (same answers on every database).
func Equivalent(q1, q2 *cq.Query) bool {
	return Contained(q1, q2) && Contained(q2, q1)
}
