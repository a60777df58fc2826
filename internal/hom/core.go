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
// search and returns a cqerr-wrapped error. The retraction runs on the
// dense form; the core is built once, as the image of s.
func CoreCtx(ctx context.Context, s *relstr.Structure, dist []int) (*relstr.Structure, map[int]int, error) {
	d := DenseOf(s)
	vals := d.Vals
	img := make([]int32, len(vals)) // per element of s, its image's id in d
	for i := range img {
		img[i] = int32(i)
	}
	for {
		h, err := shrink(ctx, d, dist)
		if err != nil {
			return nil, nil, err
		}
		if h == nil {
			break
		}
		d = d.image(h)
		for i, x := range img {
			img[i] = h[x]
		}
	}
	retract := make(map[int]int, len(vals))
	for i, e := range vals {
		retract[e] = d.Vals[img[i]]
	}
	return s.Map(func(e int) int { return retract[e] }), retract, nil
}

// image returns d mapped by h and renumbered, and rewrites h to map
// each of d's ids to its image's new id. Duplicate rows are kept: the
// kernel reads rows as a set.
func (d *Dense) image(h []int32) *Dense {
	id := make([]int32, len(d.Vals))
	for _, x := range h {
		id[x] = 1
	}
	out := &Dense{Rels: make([]DenseRel, len(d.Rels))}
	for i, e := range d.Vals {
		if id[i] != 0 {
			id[i] = int32(len(out.Vals))
			out.Vals = append(out.Vals, e)
		}
	}
	for i, x := range h {
		h[i] = id[x]
	}
	for ri, r := range d.Rels {
		r.Rows = slices.Clone(r.Rows)
		for k, x := range r.Rows {
			r.Rows[k] = h[x]
		}
		out.Rels[ri] = r
	}
	return out
}

// shrink returns an endomorphism of d fixing dist pointwise whose
// image avoids some element, as the image id of each id, trying the
// elements in ascending order, or nil when (d, dist) is a core. d is
// compiled once, as both sides: searching into d without v clears v
// from every domain and skips the tuples containing it, which yields
// exactly the candidates a search into the substructure without v
// would.
func shrink(ctx context.Context, d *Dense, dist []int) ([]int32, error) {
	var sr search
	sr.init(ctx, compileSource(d), compileTarget(d, nil))
	var h []int32
	emit := func() bool { h = slices.Clone(sr.assign); return false }
	for v, e := range d.Vals {
		if slices.Contains(dist, e) {
			continue
		}
		if sr.start(int32(v), nil, dist, dist) {
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
	h, _ := shrink(nil, DenseOf(s), dist)
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
