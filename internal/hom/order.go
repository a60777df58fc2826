package hom

import (
	"context"
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
	ok, _ := mapsCtx(nil, compileSource(DenseOf(a.S)), compileTarget(DenseOf(b.S), nil), a.Dist, b.Dist)
	return ok
}

// Compiled is a pointed structure prepared once for many Maps tests:
// as a target (per-position tuple lists and value masks) and, when
// compiled as one, as a source (atoms and co-occurrence lists). A
// Compiled is never written after it is built, so searches may share
// it concurrently.
type Compiled struct {
	d    *Dense
	dist []int
	src  *source // nil: a target only
	tgt  *target
}

// Compile prepares p for MapsCompiledCtx on either side.
func Compile(p Pointed) *Compiled {
	return CompileTarget(DenseOf(p.S), p.Dist).WithSource()
}

// CompileTarget prepares d with distinguished tuple dist as the target
// of MapsCompiledCtx. It keeps d, which must not change after.
func CompileTarget(d *Dense, dist []int) *Compiled {
	return &Compiled{d: d, dist: dist, tgt: compileTarget(d, nil)}
}

// WithSource returns c prepared as a source as well.
func (c *Compiled) WithSource() *Compiled {
	if c.src != nil {
		return c
	}
	return &Compiled{d: c.d, dist: c.dist, src: compileSource(c.d), tgt: c.tgt}
}

// MapsCompiledCtx is Maps under a context, over compiled operands: a
// must be compiled as a source.
func MapsCompiledCtx(ctx context.Context, a, b *Compiled) (bool, error) {
	return mapsCtx(ctx, a.src, b.tgt, a.dist, b.dist)
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
	var s search
	s.init(ctx, src, tgt)
	if !s.start(-1, nil, da, db) {
		return false, nil
	}
	s.solve(0, nil, nil)
	if err := s.err(); err != nil {
		return false, err
	}
	return s.found, nil
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
