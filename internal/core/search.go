package core

import (
	"context"
	"slices"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/hom"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
)

// The candidate search runs on a flat tableau. T_Q is compiled once per
// search into its atoms, grouped by relation, with their arguments
// given as positions of the partition order. A quotient relabels that
// array by a partition's restricted-growth string and drops duplicate
// atoms; an extension appends pool atoms to it. A candidate is never a
// map-backed Structure while it is searched: the built-in classes test
// it on its hypergraph (flatClass), one word per atom up to 64
// elements, and the front compiles its homomorphism operands straight
// from the flat atoms. Only a user-defined class gets a built Structure
// to test, through Contains.

// flatCand is a candidate tableau in flat form: the hom.Dense whose Vals are
// its labels — block representatives, the least element of each block,
// then fresh variables above them — and whose rows give each atom over
// dense ids 0…len(Vals)−1, in T_Q's relation order, with its
// distinguished tuple in labels. Labels are what two candidates are
// compared by, and what a built Structure is labelled with.
type flatCand struct {
	hom.Dense
	dist []int
}

func (c *flatCand) numFacts() int {
	n := 0
	for _, r := range c.Rels {
		n += len(r.Rows) / r.Arity
	}
	return n
}

// pointed builds the candidate as a Structure labelled by c.Vals.
func (c *flatCand) pointed() hom.Pointed {
	s := relstr.New()
	args := make([]int, 0, 8)
	for _, r := range c.Rels {
		for t := 0; t < len(r.Rows); t += r.Arity {
			args = args[:0]
			for _, id := range r.Rows[t : t+r.Arity] {
				args = append(args, c.Vals[id])
			}
			s.Add(r.Name, args...)
		}
	}
	return hom.Pointed{S: s, Dist: c.dist}
}

// hash is an order-independent hash of the facts, in labels, and of the
// distinguished tuple.
func (c *flatCand) hash() uint64 {
	var h uint64
	for ri, r := range c.Rels {
		for t := 0; t < len(r.Rows); t += r.Arity {
			f := uint64(ri) + 1
			for _, id := range r.Rows[t : t+r.Arity] {
				f = f*0x100000001B3 ^ uint64(c.Vals[id])
			}
			h += f * 0x9E3779B97F4A7C15
		}
	}
	for _, d := range c.dist {
		h = h*0x9E3779B97F4A7C15 + uint64(d) + 1
	}
	return h
}

// equal reports whether c and o have the same labels, the same facts
// and the same distinguished tuple. Equal fact sets imply equal labels,
// and then equal dense ids.
func (c *flatCand) equal(o *flatCand) bool {
	if !slices.Equal(c.Vals, o.Vals) || !slices.Equal(c.dist, o.dist) {
		return false
	}
	for ri, r := range c.Rels {
		rows := o.Rels[ri].Rows
		if len(r.Rows) != len(rows) {
			return false
		}
		for t := 0; t < len(r.Rows); t += r.Arity {
			if !hasRow(rows, r.Rows[t:t+r.Arity]) {
				return false
			}
		}
	}
	return true
}

// hasRow reports whether the flat rows of row's arity hold row.
func hasRow(rows, row []int32) bool {
	for t := 0; t < len(rows); t += len(row) {
		if slices.Equal(rows[t:t+len(row)], row) {
			return true
		}
	}
	return false
}

func (c *flatCand) clone() *flatCand {
	out := &flatCand{Dense: hom.Dense{Vals: slices.Clone(c.Vals), Rels: slices.Clone(c.Rels)}, dist: slices.Clone(c.dist)}
	n := 0
	for _, r := range c.Rels {
		n += len(r.Rows)
	}
	rows := make([]int32, 0, n)
	for i, r := range c.Rels {
		rows = append(rows, r.Rows...)
		out.Rels[i].Rows = rows[len(rows)-len(r.Rows):]
	}
	return out
}

// edgeSets appends one vertex set of w words per atom of d to dst: bit
// i%64 of word i/64 set iff dense id i occurs in the atom.
func edgeSets(dst []uint64, d *hom.Dense, w int) []uint64 {
	for _, r := range d.Rels {
		for t := 0; t < len(r.Rows); t += r.Arity {
			at := len(dst)
			dst = append(dst, make([]uint64, w)...)
			for _, id := range r.Rows[t : t+r.Arity] {
				dst[at+int(id>>6)] |= 1 << uint(id&63)
			}
		}
	}
	return dst
}

// forEachCandidate enumerates the candidate tableaux of C-queries
// contained in the query Q with tableau tb: the quotients of T_Q that
// belong to C, and — for hypergraph-based classes — out-of-class
// quotients extended with up to MaxExtraAtoms extra atoms over the
// quotient's variables plus FreshVars fresh variables per atom. Every
// candidate is contained in Q by construction (the quotient map is a
// homomorphism from T_Q).
// Equal candidates reached from different partitions or extensions are
// passed to fn once; fn may keep the candidate, which never changes.
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
func forEachCandidate(ctx context.Context, tb *cq.Tableau, c Class, opt Options, order []int, fn func(*flatCand) bool) error {
	if order == nil {
		order = tb.S.Domain()
	}
	n := len(order)
	sw := &sweep{c: c, opt: opt, fn: fn, seen: map[uint64][]*flatCand{}}
	sw.flat, _ = c.(flatClass)
	// An extension adds at most MaxExtraAtoms·FreshVars elements.
	sw.vw = hypergraph.Words(n + opt.MaxExtraAtoms*opt.FreshVars)
	sw.words = (n*(n-1)/2 + 63) / 64
	sw.mask = make([]uint64, sw.words)
	// T_Q's elements are 0…n−1; an argument is its element's position
	// in order.
	pos := make([]int32, n)
	for i, e := range order {
		pos[e] = int32(i)
	}
	for _, name := range tb.S.Relations() {
		r := hom.DenseRel{Name: name, Arity: tb.S.Arity(name)}
		for _, t := range tb.S.Tuples(name) {
			for _, e := range t {
				r.Rows = append(r.Rows, pos[e])
			}
		}
		sw.tableau = append(sw.tableau, r)
	}
	sw.cur.Rels = make([]hom.DenseRel, len(sw.tableau))
	for i, r := range sw.tableau {
		sw.cur.Rels[i] = hom.DenseRel{Name: r.Name, Arity: r.Arity, Rows: make([]int32, 0, len(r.Rows))}
	}
	sw.cur.dist = make([]int, len(tb.Dist))
	rep := make([]int, n)
	id := make([]int32, n)
	var canceled error
	relstr.ForEachPartition(n, func(block []int, k int) bool {
		if err := cqerr.Check(ctx); err != nil {
			canceled = err
			return false
		}
		if sw.coarsensInClass(block) {
			return true
		}
		// Label each block by its least element; dense ids follow the
		// labels.
		for b := 0; b < k; b++ {
			rep[b] = -1
		}
		for i, e := range order {
			if r := rep[block[i]]; r == -1 || e < r {
				rep[block[i]] = e
			}
		}
		sw.cur.Vals = append(sw.cur.Vals[:0], rep[:k]...)
		slices.Sort(sw.cur.Vals)
		for b := 0; b < k; b++ {
			i, _ := slices.BinarySearch(sw.cur.Vals, rep[b])
			id[b] = int32(i)
		}
		for ri, r := range sw.tableau {
			rows := sw.cur.Rels[ri].Rows[:0]
			for t := 0; t < len(r.Rows); t += r.Arity {
				start := len(rows)
				for _, p := range r.Rows[t : t+r.Arity] {
					rows = append(rows, id[block[p]])
				}
				if hasRow(rows[:start], rows[start:]) {
					rows = rows[:start]
				}
			}
			sw.cur.Rels[ri].Rows = rows
		}
		for i, d := range tb.Dist {
			sw.cur.dist[i] = rep[block[pos[d]]]
		}
		sw.edges = edgeSets(sw.edges[:0], &sw.cur.Dense, sw.vw)
		if sw.contains() {
			sw.finest = append(sw.finest, sw.mask...)
			return sw.offer()
		}
		// Hypergraph-based classes: extensions may acyclify an
		// out-of-class quotient.
		if !c.GraphBased() && opt.MaxExtraAtoms > 0 {
			return sw.extend()
		}
		return true
	})
	return canceled
}

// sweep is the state of one candidate enumeration.
type sweep struct {
	c    Class
	flat flatClass // nil: test candidates through Contains
	opt  Options
	fn   func(*flatCand) bool

	// tableau is T_Q's atoms per relation, over positions of the
	// partition order; cur is the candidate under test, a quotient with
	// the current extension's atoms appended.
	tableau []hom.DenseRel
	cur     flatCand
	edges   []uint64 // cur's hypergraph: one vertex set of vw words per atom
	vw      int

	// words is the length of a same-block-pair bitmask: bit
	// j(j−1)/2+i is set iff positions i < j share a block. mask is the
	// current partition's; finest concatenates those of the in-class
	// partitions not skipped (every other in-class one coarsens one of
	// them).
	words  int
	mask   []uint64
	finest []uint64

	// seen holds the candidates passed to fn by hash.
	seen map[uint64][]*flatCand

	// Extension scratch, reused across quotients: the pool of extra
	// atoms, the pool indices of the current extension and the
	// quotient's row count per relation.
	pool     []poolAtom
	poolArgs []int32
	chosen   []int
	baseLen  []int
}

// poolAtom is a candidate extra atom: relation rel over
// poolArgs[off:off+arity], where an argument past the quotient's k
// elements is fresh variable arg−k; fresh counts them.
type poolAtom struct{ rel, off, fresh int }

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

// contains tests cur against the class: on its hypergraph, in edges,
// for a built-in class, on a built Structure for any other.
func (sw *sweep) contains() bool {
	if sw.flat != nil {
		return sw.flat.containsFlat(hypergraph.Hypergraph{N: len(sw.cur.Vals), W: sw.vw, E: sw.edges})
	}
	return sw.c.Contains(sw.cur.pointed().S)
}

// offer passes a copy of cur to fn unless an equal candidate was passed
// before.
func (sw *sweep) offer() bool {
	h := sw.cur.hash()
	for _, o := range sw.seen[h] {
		if o.equal(&sw.cur) {
			return true
		}
	}
	c := sw.cur.clone()
	sw.seen[h] = append(sw.seen[h], c)
	return sw.fn(c)
}

// extend offers the in-class extensions of the out-of-class quotient
// cur by 1..MaxExtraAtoms atoms. It returns false if fn stopped the
// enumeration.
func (sw *sweep) extend() bool {
	k := len(sw.cur.Vals)
	sw.buildPool(k)
	sw.baseLen = sw.baseLen[:0]
	for _, r := range sw.cur.Rels {
		sw.baseLen = append(sw.baseLen, len(r.Rows))
	}
	sw.chosen = sw.chosen[:0]
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(sw.chosen) > 0 && !sw.tryExtension(k) {
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

// buildPool generates the candidate extra atoms for the quotient cur
// over k elements: tuples over its elements and fresh variables, the
// fresh ones in first-use order. Fresh variables are local to one atom
// (Claim 6.2's renamed extension tuples).
func (sw *sweep) buildPool(k int) {
	sw.pool, sw.poolArgs = sw.pool[:0], sw.poolArgs[:0]
	for ri, r := range sw.cur.Rels {
		vals := make([]int32, r.Arity)
		var gen func(pos, freshUsed int)
		gen = func(pos, freshUsed int) {
			if pos == r.Arity {
				// Skip atoms already present, and fully fresh ones: they
				// are trivially satisfied and never minimal.
				if !slices.ContainsFunc(vals, func(a int32) bool { return a < int32(k) }) || hasRow(r.Rows, vals) {
					return
				}
				sw.pool = append(sw.pool, poolAtom{rel: ri, off: len(sw.poolArgs), fresh: freshUsed})
				sw.poolArgs = append(sw.poolArgs, vals...)
				return
			}
			for e := 0; e < k; e++ {
				vals[pos] = int32(e)
				gen(pos+1, freshUsed)
			}
			// Reuse an already-introduced fresh variable or introduce
			// the next one (canonical first-use order).
			for f := 0; f <= freshUsed && f < sw.opt.FreshVars; f++ {
				vals[pos] = int32(k + f)
				gen(pos+1, max(freshUsed, f+1))
			}
		}
		gen(0, 0)
	}
}

// tryExtension appends the chosen pool atoms to the quotient cur over k
// elements, and their vertex sets to its edges, offers the result if it
// is in the class and truncates both back. Fresh variables are disjoint
// across atoms: the atom in slot j labels its fresh variable f as the
// quotient's largest label plus 1 + j·FreshVars + f.
func (sw *sweep) tryExtension(k int) bool {
	freshBase := 0
	if k > 0 {
		freshBase = sw.cur.Vals[k-1] + 1
	}
	next := int32(k) // dense id of the slot's first fresh variable
	atoms := len(sw.edges)
	for slot, pi := range sw.chosen {
		at := sw.pool[pi]
		r := &sw.cur.Rels[at.rel]
		e := len(sw.edges)
		sw.edges = append(sw.edges, make([]uint64, sw.vw)...)
		for _, a := range sw.poolArgs[at.off : at.off+r.Arity] {
			if a >= int32(k) {
				a += next - int32(k)
			}
			r.Rows = append(r.Rows, a)
			sw.edges[e+int(a>>6)] |= 1 << uint(a&63)
		}
		for f := 0; f < at.fresh; f++ {
			sw.cur.Vals = append(sw.cur.Vals, freshBase+slot*sw.opt.FreshVars+f)
		}
		next += int32(at.fresh)
	}
	ok := !sw.contains() || sw.offer()
	sw.cur.Vals, sw.edges = sw.cur.Vals[:k], sw.edges[:atoms]
	for ri, n := range sw.baseLen {
		sw.cur.Rels[ri].Rows = sw.cur.Rels[ri].Rows[:n]
	}
	return ok
}
