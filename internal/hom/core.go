package hom

import (
	"context"
	"slices"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// Core computes the core of the structure s with distinguished tuple
// dist: a minimal retract of (s, dist). The returned retraction maps
// each element of s to its image in the core; distinguished elements
// are fixed pointwise. Cores are unique up to isomorphism
// (Hell–Nešetřil), so the result is canonical up to renaming.
//
// The algorithm repeatedly looks for an endomorphism into the
// substructure avoiding some element; any non-core structure admits one
// that avoids at least one element, because a fact-losing endomorphism
// of a finite structure cannot be injective on the active domain.
func Core(s *relstr.Structure, dist []int) (*relstr.Structure, map[int]int) {
	c, r, _ := CoreCtx(nil, s, dist)
	return c, r
}

// CoreCtx is Core under a context: cancellation aborts the retraction
// search and returns a cqerr-wrapped error.
func CoreCtx(ctx context.Context, s *relstr.Structure, dist []int) (*relstr.Structure, map[int]int, error) {
	cur := s.Clone()
	// retract maps original elements to their current images.
	retract := map[int]int{}
	for _, e := range s.Domain() {
		retract[e] = e
	}
	for {
		h, err := shrink(ctx, cur, dist)
		if err != nil {
			return nil, nil, err
		}
		if h == nil {
			return cur, retract, nil
		}
		cur = cur.Map(func(e int) int { return h[e] })
		for orig, img := range retract {
			retract[orig] = h[img]
		}
	}
}

// shrink returns an endomorphism of s fixing dist pointwise whose
// image avoids some element, trying the elements in ascending order,
// or nil when (s, dist) is a core. s is compiled once, as both sides:
// searching into s without v clears v from every domain and skips the
// tuples containing it, which yields exactly the candidates a search
// into s.Without(v) would.
func shrink(ctx context.Context, s *relstr.Structure, dist []int) (map[int]int, error) {
	src := compileSource(s)
	sr := newSearch(ctx, src, compileTarget(s, nil))
	var h map[int]int
	emit := func() bool { h = sr.emit(); return false }
	for v, e := range src.vals {
		if slices.Contains(dist, e) {
			continue
		}
		if sr.start(int32(v), nil, pairs(dist, dist)) {
			sr.solve(0, nil, emit)
		}
		if err := sr.err(); err != nil {
			return nil, err
		}
		if h != nil {
			return h, nil
		}
	}
	return nil, nil
}

// IsCore reports whether (s, dist) is a core: no homomorphism into a
// strictly contained substructure fixing dist pointwise.
func IsCore(s *relstr.Structure, dist []int) bool {
	h, _ := shrink(nil, s, dist)
	return h == nil
}

// Minimize returns the canonical minimal CQ equivalent to q: the query
// whose tableau is core(T_Q, x̄). Variable names from q are preserved
// where the corresponding elements survive.
func Minimize(q *cq.Query) *cq.Query {
	m, _ := MinimizeCtx(nil, q)
	return m
}

// MinimizeCtx is Minimize under a context.
func MinimizeCtx(ctx context.Context, q *cq.Query) (*cq.Query, error) {
	tb := q.Tableau()
	core, retract, err := CoreCtx(ctx, tb.S, tb.Dist)
	if err != nil {
		return nil, err
	}
	dist := make([]int, len(tb.Dist))
	for i, d := range tb.Dist {
		dist[i] = retract[d]
	}
	names := map[int]string{}
	for e, n := range tb.Var {
		img := retract[e]
		if img == e {
			names[img] = n
		}
	}
	out := cq.FromTableau(core, dist, names)
	out.Name = q.Name
	return out, nil
}

// IsMinimized reports whether q's tableau is a core (i.e., q equals its
// own minimization up to renaming).
func IsMinimized(q *cq.Query) bool {
	tb := q.Tableau()
	return IsCore(tb.S, tb.Dist)
}
