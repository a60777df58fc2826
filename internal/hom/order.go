package hom

import (
	"context"
	"iter"
	"slices"

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
	ok, _ := mapsCtx(nil, compileSource(a.S), compileTarget(b.S, nil), a.Dist, b.Dist)
	return ok
}

// Compiled is a pointed structure prepared once for many Maps tests on
// either side: its atoms and co-occurrence lists as a source, its
// per-position tuple lists and value masks as a target. It holds S by
// reference, so S must not change after Compile; a Compiled is never
// written after Compile, so searches may share it concurrently.
type Compiled struct {
	Pointed
	src *source
	tgt *target
}

// Compile prepares p for MapsCompiledCtx.
func Compile(p Pointed) *Compiled {
	return &Compiled{Pointed: p, src: compileSource(p.S), tgt: compileTarget(p.S, nil)}
}

// MapsCompiledCtx is Maps under a context, over compiled operands.
func MapsCompiledCtx(ctx context.Context, a, b *Compiled) (bool, error) {
	return mapsCtx(ctx, a.src, b.tgt, a.Dist, b.Dist)
}

// mapsCtx searches src → tgt sending ā to b̄ pointwise. The tuples
// must have the same length, and ā may repeat an element only where
// b̄ repeats its image.
func mapsCtx(ctx context.Context, src *source, tgt *target, da, db []int) (bool, error) {
	if len(da) != len(db) {
		return false, nil
	}
	for i := range da {
		if j := slices.Index(da[:i], da[i]); j >= 0 && db[j] != db[i] {
			return false, nil
		}
	}
	s := newSearch(ctx, src, tgt)
	if !s.start(-1, nil, pairs(da, db)) {
		return false, nil
	}
	s.solve(0, nil, nil)
	if err := s.err(); err != nil {
		return false, err
	}
	return s.found, nil
}

// pairs yields (a[i], b[i]) for every i.
func pairs(a, b []int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		for i := range a {
			if !yield(a[i], b[i]) {
				return
			}
		}
	}
}

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

// Equivalent reports q1 ≡ q2 (same answers on every database).
func Equivalent(q1, q2 *cq.Query) bool {
	return Contained(q1, q2) && Contained(q2, q1)
}
