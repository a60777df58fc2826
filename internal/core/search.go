package core

import (
	"context"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/hom"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
)

// forEachCandidate enumerates the candidate tableaux of C-queries
// contained in q: the quotients of T_Q that belong to C, and — for
// hypergraph-based classes — out-of-class quotients extended with up
// to MaxExtraAtoms extra atoms over the quotient's variables plus
// FreshVars fresh variables per atom. Every candidate is contained in
// q by construction (the quotient map is a homomorphism from T_Q).
//
// Partitions are visited finest first, and a partition coarsening one
// whose quotient is in C is skipped together with all its extensions:
// the quotient map T_Q/P → T_Q/P′ fixes the distinguished tuple, so
// Q_{P′} ⊆ Q_P, and so is every extension of T_Q/P′ — none of them can
// be strictly better than the in-class Q_P, whatever the class.
//
// order is the element order the partitions are enumerated over (nil:
// ascending domain); it changes the visiting order within one block
// count, never the candidates. fn returning false stops the
// enumeration. A non-nil ctx is polled once per partition; expiry
// stops the enumeration and surfaces a cqerr.ErrCanceled-wrapped error.
func forEachCandidate(ctx context.Context, q *cq.Query, c Class, opt Options, order []int, fn func(hom.Pointed) bool) error {
	tb := q.Tableau()
	if order == nil {
		order = tb.S.Domain()
	}
	sw := &sweep{
		tb:   tb,
		c:    c,
		opt:  opt,
		fn:   fn,
		seen: map[uint64][]hom.Pointed{},
	}
	if ec, ok := c.(edgeClass); ok {
		sw.edges = ec
	}
	n := len(order)
	sw.words = (n*(n-1)/2 + 63) / 64
	sw.mask = make([]uint64, sw.words)
	maxElem := 0
	for _, e := range order {
		maxElem = max(maxElem, e)
	}
	repOf := make([]int, maxElem+1)
	quotient := func(e int) int { return repOf[e] }
	blockRep := make([]int, n)
	var canceled error
	relstr.ForEachPartition(n, func(block []int, k int) bool {
		if err := cqerr.Check(ctx); err != nil {
			canceled = err
			return false
		}
		if sw.coarsensInClass(block) {
			return true
		}
		for b := 0; b < k; b++ {
			blockRep[b] = -1
		}
		for i, e := range order {
			if r := blockRep[block[i]]; r == -1 || e < r {
				blockRep[block[i]] = e
			}
		}
		for i, e := range order {
			repOf[e] = blockRep[block[i]]
		}
		img := tb.S.Map(quotient)
		dist := make([]int, len(tb.Dist))
		for i, d := range tb.Dist {
			dist[i] = repOf[d]
		}
		if c.Contains(img) {
			sw.finest = append(sw.finest, sw.mask...)
			return sw.offer(img, dist, img.SetHash(), nil)
		}
		// Hypergraph-based classes: extensions may acyclify an
		// out-of-class quotient.
		if !c.GraphBased() && opt.MaxExtraAtoms > 0 {
			return sw.extend(img, dist)
		}
		return true
	})
	return canceled
}

// edgeClass is implemented by hypergraph-based classes whose membership
// depends on the query hypergraph alone. The extension search asks it
// about a candidate given as one vertex bitmask per atom (vertices
// 0…63), before building the candidate. containsEdges may overwrite
// edges.
type edgeClass interface {
	containsEdges(edges []uint64) bool
}

// sweep is the state of one candidate enumeration.
type sweep struct {
	tb    *cq.Tableau
	c     Class
	edges edgeClass // nil: test extensions by building them
	opt   Options
	fn    func(hom.Pointed) bool

	// words is the length of a same-block-pair bitmask: bit
	// j(j−1)/2+i is set iff positions i < j share a block. mask is the
	// current partition's; finest concatenates those of the in-class
	// partitions not skipped (every other in-class one coarsens one of
	// them).
	words  int
	mask   []uint64
	finest []uint64

	// seen holds the candidates passed to fn by the hash of their
	// facts and distinguished tuple, so equal candidates reached from
	// different partitions or extensions are offered once.
	seen map[uint64][]hom.Pointed

	// Extension scratch, reused across quotients.
	rels     []string
	arity    []int
	pool     []poolAtom
	poolArgs []int
	chosen   []int    // pool indices of the current extension
	args     []int    // the chosen atoms' arguments, fresh ones offset
	imgEdges []uint64 // the quotient's edge masks
	scratch  []uint64
}

// poolAtom is a candidate extra atom: relation rels[rel] over
// poolArgs[off:off+arity[rel]], fresh variables numbered from the
// quotient's freshBase.
type poolAtom struct{ rel, off int }

// coarsensInClass computes the current partition's pair mask and
// reports whether some stored in-class partition refines it.
func (sw *sweep) coarsensInClass(block []int) bool {
	clear(sw.mask)
	bit := 0
	for j := 1; j < len(block); j++ {
		for i := 0; i < j; i++ {
			if block[i] == block[j] {
				sw.mask[bit>>6] |= 1 << uint(bit&63)
			}
			bit++
		}
	}
	for off := 0; off < len(sw.finest); off += sw.words {
		finer := true
		for w, m := range sw.finest[off : off+sw.words] {
			if m&^sw.mask[w] != 0 {
				finer = false
				break
			}
		}
		if finer {
			return true
		}
	}
	return false
}

// candKey combines a set hash of facts with the distinguished tuple.
func candKey(factHash uint64, dist []int) uint64 {
	h := factHash
	for _, d := range dist {
		h = h*0x9E3779B97F4A7C15 + uint64(d) + 1
	}
	return h
}

// offer passes the in-class candidate base ∪ extra (extra holds atom
// pool indices of sw.chosen, with arguments in sw.args) to fn unless
// an equal candidate was offered before. base is built already; the
// extension is built only once it is known to be new.
func (sw *sweep) offer(base *relstr.Structure, dist []int, factHash uint64, extra []int) bool {
	key := candKey(factHash, dist)
	for _, p := range sw.seen[key] {
		if sw.sameCandidate(p, base, dist, extra) {
			return true
		}
	}
	s := base
	if len(extra) > 0 {
		s = base.Clone()
		sw.addChosen(s)
	}
	p := hom.Pointed{S: s, Dist: dist}
	sw.seen[key] = append(sw.seen[key], p)
	return sw.fn(p)
}

// sameCandidate reports whether p equals base plus the chosen atoms,
// with the same distinguished tuple.
func (sw *sweep) sameCandidate(p hom.Pointed, base *relstr.Structure, dist []int, extra []int) bool {
	if p.S.NumFacts() != base.NumFacts()+len(extra) || !relstr.Tuple(p.Dist).Equal(dist) || !base.ContainedIn(p.S) {
		return false
	}
	off := 0
	for _, pi := range extra {
		rel := sw.pool[pi].rel
		a := sw.arity[rel]
		if !p.S.Has(sw.rels[rel], sw.args[off:off+a]...) {
			return false
		}
		off += a
	}
	return true
}

// addChosen adds the current extension's atoms to s.
func (sw *sweep) addChosen(s *relstr.Structure) {
	off := 0
	for _, pi := range sw.chosen {
		rel := sw.pool[pi].rel
		a := sw.arity[rel]
		s.Add(sw.rels[rel], sw.args[off:off+a]...)
		off += a
	}
}

// extend offers the in-class extensions of the out-of-class quotient
// img by 1..MaxExtraAtoms atoms. It returns false if fn stopped the
// enumeration.
func (sw *sweep) extend(img *relstr.Structure, dist []int) bool {
	if sw.rels == nil {
		schema := sw.tb.S
		sw.rels = schema.Relations()
		for _, r := range sw.rels {
			sw.arity = append(sw.arity, schema.Arity(r))
		}
	}
	domain := img.Domain()
	freshBase := 0
	for _, e := range domain {
		if e >= freshBase {
			freshBase = e + 1
		}
	}
	sw.buildPool(img, domain, freshBase)
	// The edge-mask class test applies when every element, fresh ones
	// included, fits in a bitmask.
	edges := sw.edges
	if freshBase+sw.opt.MaxExtraAtoms*sw.opt.FreshVars > 64 {
		edges = nil
	}
	if edges != nil {
		var ok bool
		if sw.imgEdges, ok = hypergraph.AppendEdgeMasks(sw.imgEdges[:0], img); !ok {
			edges = nil
		}
	}
	imgHash := img.SetHash()
	sw.chosen = sw.chosen[:0]
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(sw.chosen) > 0 && !sw.tryExtension(img, dist, imgHash, freshBase, edges) {
			return false
		}
		if len(sw.chosen) == sw.opt.MaxExtraAtoms {
			return true
		}
		for i := start; i < len(sw.pool); i++ {
			sw.chosen = append(sw.chosen, i)
			ok := rec(i + 1)
			sw.chosen = sw.chosen[:len(sw.chosen)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// buildPool generates the candidate extra atoms for a quotient: tuples
// over domain ∪ {fresh}, canonicalised so fresh variables appear in
// first-use order. Fresh variables are local to one atom (Claim 6.2's
// renamed extension tuples).
func (sw *sweep) buildPool(img *relstr.Structure, domain []int, freshBase int) {
	sw.pool, sw.poolArgs = sw.pool[:0], sw.poolArgs[:0]
	for ri, r := range sw.rels {
		arity := sw.arity[ri]
		vals := make([]int, arity)
		var gen func(pos, freshUsed int)
		gen = func(pos, freshUsed int) {
			if pos == arity {
				// Skip atoms already present.
				if img.Has(r, vals...) {
					return
				}
				// At least one position must touch the image domain so
				// the atom constrains the query (fully fresh atoms are
				// trivially satisfied and never minimal).
				for _, a := range vals {
					if a < freshBase {
						sw.pool = append(sw.pool, poolAtom{rel: ri, off: len(sw.poolArgs)})
						sw.poolArgs = append(sw.poolArgs, vals...)
						return
					}
				}
				return
			}
			for _, e := range domain {
				vals[pos] = e
				gen(pos+1, freshUsed)
			}
			// Reuse an already-introduced fresh variable or introduce
			// the next one (canonical first-use order).
			for f := 0; f <= freshUsed && f < sw.opt.FreshVars; f++ {
				vals[pos] = freshBase + f
				nu := freshUsed
				if f == freshUsed {
					nu++
				}
				gen(pos+1, nu)
			}
		}
		gen(0, 0)
	}
}

// tryExtension tests img plus the chosen pool atoms against the class —
// on edge masks when edges is non-nil, before anything is built — and
// offers it if it is in the class. Fresh variables are disjoint across
// atoms: the atom in slot j shifts them by j·FreshVars.
func (sw *sweep) tryExtension(img *relstr.Structure, dist []int, imgHash uint64, freshBase int, edges edgeClass) bool {
	sw.args = sw.args[:0]
	hash := imgHash
	if edges != nil {
		sw.scratch = append(sw.scratch[:0], sw.imgEdges...)
	}
	for slot, pi := range sw.chosen {
		at := sw.pool[pi]
		start := len(sw.args)
		for _, a := range sw.poolArgs[at.off : at.off+sw.arity[at.rel]] {
			if a >= freshBase {
				a += slot * sw.opt.FreshVars
			}
			sw.args = append(sw.args, a)
		}
		t := sw.args[start:]
		hash += relstr.FactHash(sw.rels[at.rel], t)
		if edges != nil {
			m, _ := hypergraph.TupleMask(t)
			sw.scratch = append(sw.scratch, m)
		}
	}
	if edges != nil {
		if !edges.containsEdges(sw.scratch) {
			return true
		}
		return sw.offer(img, dist, hash, sw.chosen)
	}
	// No mask test: build the extension and ask the class. Extensions
	// that fail are not remembered; the test repeats if the same one
	// comes up again.
	ext := img.Clone()
	sw.addChosen(ext)
	if !sw.c.Contains(ext) {
		return true
	}
	return sw.offer(ext, dist, hash, nil)
}
