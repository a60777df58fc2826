// Package hom implements homomorphism search between relational
// structures, along with the derived notions the paper builds on:
// cores, CQ minimization, containment and equivalence of CQs, and the
// homomorphism preorder on tableaux.
//
// Every entry point runs one dense backtracking kernel. Both sides are
// renumbered densely in ascending element order; a domain is a bitset
// over the target's ids; the target keeps, per relation, its tuples as
// flat rows, the tuple ids per (position, value) and the mask of the
// values at each position; the assignment and the frontier counts are
// flat slices. The kernel picks the most constrained frontier element
// (elements in no atom last), tries values in ascending order and
// filters candidates through the partially assigned atoms. It is exact (CQ evaluation / homomorphism
// existence is NP-complete; the paper's Section 2). Maps cross the API
// boundary only: pre maps and restrictions in, homomorphisms and
// retractions out.
package hom

import (
	"context"
	"math/bits"
	"slices"
	"sort"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// csr is a compressed adjacency list: row i is idx[off[i]:off[i+1]].
type csr struct{ off, idx []int32 }

func (c csr) row(i int32) []int32 { return c.idx[c.off[i]:c.off[i+1]] }

// newCSR groups pairs — (row, entry), interleaved — into n rows,
// keeping the entries' order within a row. It takes its storage from
// the front of buf, which must hold n+1+len(pairs)/2 zeroed ids, and
// returns the rest.
func newCSR(n int, pairs, buf []int32) (csr, []int32) {
	m := n + 1 + len(pairs)/2
	c := csr{off: buf[: n+1 : n+1], idx: buf[n+1 : m : m]}
	for k := 0; k < len(pairs); k += 2 {
		c.off[pairs[k]+1]++
	}
	for i := 0; i < n; i++ {
		c.off[i+1] += c.off[i]
	}
	for k := 0; k < len(pairs); k += 2 {
		c.idx[c.off[pairs[k]]] = pairs[k+1]
		c.off[pairs[k]]++
	}
	copy(c.off[1:], c.off[:n]) // each row's end is the next row's start
	c.off[0] = 0
	return c, buf[m:]
}

// idOf is the dense id of element e in the ascending element list vals.
func idOf(vals []int, e int) (int32, bool) {
	i := sort.SearchInts(vals, e)
	return int32(i), i < len(vals) && vals[i] == e
}

// Dense is a structure in the kernel's input form: its active domain
// ascending (dense id → element) and the relations holding tuples,
// ascending by name, each with its tuples as flat rows of dense ids.
// A compiled form keeps d's slices, which must not change after.
type Dense struct {
	Vals []int
	Rels []DenseRel
}

// DenseRel is one relation of a Dense structure.
type DenseRel struct {
	Name  string
	Arity int
	Rows  []int32
}

// DenseOf returns s in dense form.
func DenseOf(s *relstr.Structure) *Dense {
	d := &Dense{Vals: s.Domain()}
	for _, name := range s.Relations() {
		ts := s.Tuples(name)
		if len(ts) == 0 {
			continue
		}
		r := DenseRel{Name: name, Arity: s.Arity(name), Rows: make([]int32, 0, len(ts)*s.Arity(name))}
		for _, t := range ts {
			for _, e := range t {
				id, _ := idOf(d.Vals, e)
				r.Rows = append(r.Rows, id)
			}
		}
		d.Rels = append(d.Rels, r)
	}
	return d
}

// source is a structure compiled as the left-hand side of a search:
// its atoms in (relation, row) order over dense ids, and per element
// the atoms it occurs in and the elements it co-occurs with.
type source struct {
	vals   []int      // dense id → element, ascending
	rels   []DenseRel // relations with atoms, ascending
	atoms  []atom
	atomOf csr
	nbrs   csr
}

// atom is one fact of the source; self marks an atom over one element.
type atom struct {
	rel  int
	args []int32
	self bool
}

func compileSource(d *Dense) *source {
	size, facts, maxAr := 0, 0, 0
	for _, r := range d.Rels {
		size, facts, maxAr = size+len(r.Rows), facts+len(r.Rows)/r.Arity, max(maxAr, r.Arity)
	}
	src := &source{vals: d.Vals, rels: d.Rels, atoms: make([]atom, 0, facts)}
	// One allocation holds the (row, entry) pairs of both lists, then
	// the lists.
	n := len(src.vals)
	ints := make([]int32, 2*size*maxAr+2*(n+1)+size*maxAr)
	pairs, buf := ints[:0:2*size*maxAr], ints[2*size*maxAr:]
	for ri, r := range d.Rels {
		for t := 0; t < len(r.Rows); t += r.Arity {
			at := atom{rel: ri, args: r.Rows[t : t+r.Arity], self: true}
			ai := int32(len(src.atoms))
			for p, x := range at.args {
				if x != at.args[0] {
					at.self = false
				}
				if slices.Index(at.args[:p], x) < 0 {
					pairs = append(pairs, x, ai)
				}
			}
			src.atoms = append(src.atoms, at)
		}
	}
	atomPairs := len(pairs)
	for _, at := range src.atoms {
		for p, x := range at.args {
			if slices.Index(at.args[:p], x) < 0 {
				for q, y := range at.args {
					if y != x && slices.Index(at.args[:q], y) < 0 {
						pairs = append(pairs, x, y)
					}
				}
			}
		}
	}
	src.atomOf, buf = newCSR(n, pairs[:atomPairs], buf)
	src.nbrs, _ = newCSR(n, pairs[atomPairs:], buf)
	return src
}

// target is a structure compiled as the right-hand side of a search.
// Its ids may cover values beyond the active domain (restriction
// values, see compileTarget); all and the relations never hold them.
type target struct {
	vals []int // dense id → value, ascending
	w    int   // words per mask
	all  []uint64
	iso  []uint64 // active-domain elements in no tuple
	rels []trel   // ascending by name
}

// trel is one relation of the target: its tuples as flat rows, per
// position the tuple ids by value and the mask of the values there,
// and for a binary relation of a small target the mask of the other
// position's values per (position, value).
type trel struct {
	name string
	ar   int
	rows []int32
	by   []csr
	pos  []uint64
	nb   []uint64
}

// nbWords bounds the target size, in mask words, up to which binary
// relations keep per-value neighbour masks (2·n masks each). The masks
// grow with the square of the target, 64 KiB per relation at the bound
// (512 elements), and are rebuilt on every compile; past it candidates
// come from the tuple scan, which costs the length of one tuple list.
const nbWords = 8

// compileTarget compiles d as the right-hand side of a search. Values
// in extra outside d's active domain get ids too, so restrictions may
// name them, but no relation or full domain contains them.
func compileTarget(d *Dense, extra []int) *target {
	vals, remap := d.Vals, []int32(nil)
	if len(extra) > 0 {
		vals = slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(d.Vals), extra...))))
		remap = make([]int32, len(d.Vals))
		for i, e := range d.Vals {
			remap[i], _ = idOf(vals, e)
		}
	}
	n := len(vals)
	w := (n + 63) / 64
	maxRows, words, ids, positions := 0, 2*w, 0, 0
	for _, dr := range d.Rels {
		maxRows = max(maxRows, len(dr.Rows)/dr.Arity)
		ids, positions = ids+dr.Arity*(n+1)+len(dr.Rows), positions+dr.Arity
		if words += dr.Arity * w; dr.Arity == 2 && w <= nbWords {
			words += 2 * n * w
		}
	}
	masks := make([]uint64, words)
	take := func(k int) []uint64 { m := masks[:k:k]; masks = masks[k:]; return m }
	t := &target{vals: vals, w: w, all: take(w), iso: take(w), rels: make([]trel, 0, len(d.Rels))}
	for i := range d.Vals {
		id := int32(i)
		if remap != nil {
			id = remap[i]
		}
		set(t.all, id)
	}
	copy(t.iso, t.all)
	ints, bys := make([]int32, 2*maxRows+ids), make([]csr, positions)
	pairs, buf := ints[:2*maxRows], ints[2*maxRows:]
	for _, dr := range d.Rels {
		ar, nt := dr.Arity, len(dr.Rows)/dr.Arity
		r := trel{name: dr.Name, ar: ar, rows: dr.Rows, by: bys[:ar:ar], pos: take(ar * w)}
		bys = bys[ar:]
		if remap != nil {
			r.rows = make([]int32, len(dr.Rows))
			for i, id := range dr.Rows {
				r.rows[i] = remap[id]
			}
		}
		for i, id := range r.rows {
			set(r.pos[i%ar*w:], id)
			clr(t.iso, id)
		}
		for p := range r.by {
			for i := 0; i < nt; i++ {
				pairs[2*i], pairs[2*i+1] = r.rows[i*ar+p], int32(i)
			}
			r.by[p], buf = newCSR(n, pairs[:2*nt], buf)
		}
		if r.ar == 2 && w <= nbWords {
			r.nb = take(2 * n * w)
			for i := 0; i < len(r.rows); i += 2 {
				x, y := int(r.rows[i]), int(r.rows[i+1])
				set(r.nb[x*w:], int32(y))
				set(r.nb[(n+y)*w:], int32(x))
			}
		}
		t.rels = append(t.rels, r)
	}
	return t
}

func set(m []uint64, i int32)      { m[i>>6] |= 1 << (i & 63) }
func clr(m []uint64, i int32)      { m[i>>6] &^= 1 << (i & 63) }
func has(m []uint64, i int32) bool { return m[i>>6]>>(i&63)&1 != 0 }

func and(dst, m []uint64) {
	for i := range dst {
		dst[i] &= m[i]
	}
}

func count(m []uint64) int {
	n := 0
	for _, x := range m {
		n += bits.OnesCount64(x)
	}
	return n
}

// Assignment states of a source element besides a target id: pinned
// marks a pre-assigned element with no atoms and no restriction whose
// value lies outside the target; it is reported as given.
const (
	unset  = -1
	pinned = -2
)

// search is the state of one search from src into tgt. A Compiled
// operand is never written; everything here belongs to one call.
type search struct {
	src *source
	tgt *target

	rel  []int32    // source relation → target relation, or -1
	drop int32      // target element the view leaves out, or -1
	vpos [][]uint64 // with a dropped element: target relation → position masks
	all  []uint64   // with a dropped element: the active domain

	dom    []uint64 // static domain per source element
	assign []int32  // target id, unset or pinned per source element
	front  []int32  // assigned co-occurring elements per source element
	masks  []uint64 // two candidate masks per depth, then a scratch mask
	pins   [][2]int
	found  bool

	// Cooperative cancellation: when ctx is non-nil the search polls
	// it on its first node and every cancelEvery nodes after, and
	// latches canceled so callers can tell "exhausted" from
	// "interrupted by the context".
	ctx      context.Context
	steps    uint
	canceled bool
}

// cancelEvery is how many solver nodes pass between context polls: a
// power of two so the check compiles to a mask, small enough that
// cancellation is observed within microseconds on realistic instances.
const cancelEvery = 256

// init sets s up for a search from src into tgt.
func (s *search) init(ctx context.Context, src *source, tgt *target) {
	n, w := len(src.vals), tgt.w
	ints := make([]int32, len(src.rels)+2*n)
	words := make([]uint64, (3*n+3)*w)
	*s = search{src: src, tgt: tgt, ctx: ctx, drop: -1,
		rel: ints[:len(src.rels)], assign: ints[len(src.rels) : len(src.rels)+n], front: ints[len(src.rels)+n:],
		dom: words[:n*w], masks: words[n*w:]}
	j := 0
	for i, r := range src.rels {
		for j < len(tgt.rels) && tgt.rels[j].name < r.Name {
			j++
		}
		s.rel[i] = -1
		if j < len(tgt.rels) && tgt.rels[j].name == r.Name && tgt.rels[j].ar == r.Arity {
			s.rel[i] = int32(j)
		}
	}
}

// start sets the view — the whole target, or with drop ≥ 0 the target
// without that element and the tuples containing it — derives the
// static domains (per element, the values at its positions in the
// relations of its atoms, within allowed[e] when present) and installs
// the pre-assignment. It reports false when a relation is missing, a
// restricted domain is empty or pre contradicts the domains or the
// atoms it fully assigns.
func (s *search) start(drop int32, allowed map[int][]int, preA, preB []int) bool {
	w := s.tgt.w
	s.drop, s.steps = drop, 0
	all := s.tgt.all
	if drop >= 0 {
		all = s.view()
	}
	for j, r := range s.rel {
		if r < 0 || count(s.pos(j)[:w]) == 0 {
			return false
		}
	}
	for i := range s.src.vals {
		d := s.dom[i*w : (i+1)*w]
		free := true
		if list, ok := allowed[s.src.vals[i]]; ok {
			clear(d)
			free = false
			for _, v := range list {
				id, _ := idOf(s.tgt.vals, v) // restriction values all have ids
				set(d, id)
			}
		}
		for _, ai := range s.src.atomOf.row(int32(i)) {
			at := &s.src.atoms[ai]
			for p, x := range at.args {
				if x != int32(i) {
					continue
				}
				if m := s.pos(at.rel)[p*w : (p+1)*w]; free {
					copy(d, m)
					free = false
				} else {
					and(d, m)
				}
			}
		}
		if free {
			copy(d, all)
		} else if count(d) == 0 {
			return false
		}
	}
	return s.prepare(allowed, preA, preB)
}

// pos returns the position masks, in the view, of the target relation
// of source relation j.
func (s *search) pos(j int) []uint64 {
	if r := s.rel[j]; s.drop < 0 {
		return s.tgt.rels[r].pos
	} else {
		return s.vpos[r]
	}
}

// view computes the masks of the target without s.drop, over the
// tuples avoiding it: per relation the position masks, and the active
// domain.
func (s *search) view() []uint64 {
	w, rels := s.tgt.w, s.tgt.rels
	if s.vpos == nil {
		s.vpos = make([][]uint64, len(rels))
		for ri, r := range rels {
			s.vpos[ri] = make([]uint64, r.ar*w)
		}
		s.all = make([]uint64, w)
	}
	copy(s.all, s.tgt.iso)
	for ri, r := range rels {
		m := s.vpos[ri]
		clear(m)
		for t := 0; t < len(r.rows); t += r.ar {
			if row := r.rows[t : t+r.ar]; !slices.Contains(row, s.drop) {
				for p, v := range row {
					set(m[p*w:], v)
					set(s.all, v)
				}
			}
		}
	}
	clr(s.all, s.drop)
	return s.all
}

// prepare clears the assignment and installs pre; see start.
func (s *search) prepare(allowed map[int][]int, preA, preB []int) bool {
	w := s.tgt.w
	for i := range s.assign {
		s.assign[i], s.front[i] = unset, 0
	}
	s.pins = s.pins[:0]
	for k, e := range preA {
		v := preB[k]
		i, ok := idOf(s.src.vals, e)
		if !ok {
			continue // pre may mention elements outside the active domain
		}
		if id, ok := idOf(s.tgt.vals, v); ok && has(s.dom[int(i)*w:], id) {
			s.assign[i] = id
		} else if _, ok := allowed[e]; !ok && len(s.src.atomOf.row(i)) == 0 {
			s.assign[i] = pinned
			s.pins = append(s.pins, [2]int{e, v})
		} else {
			return false
		}
	}
	for ai := range s.src.atoms {
		at := &s.src.atoms[ai]
		if !slices.ContainsFunc(at.args, func(x int32) bool { return s.assign[x] < 0 }) && !s.holds(at) {
			return false
		}
	}
	for i, a := range s.assign {
		if a >= 0 {
			s.bump(int32(i), 1)
		}
	}
	return true
}

func (s *search) bump(v int32, d int32) {
	for _, u := range s.src.nbrs.row(v) {
		s.front[u] += d
	}
}

// cancelled polls the context (if any) at a bounded rate and latches
// the result: on the first node, so an already-expired context is seen
// even on tiny instances, and every cancelEvery nodes after.
func (s *search) cancelled() bool {
	if s.canceled || s.ctx == nil {
		return s.canceled
	}
	s.steps++
	if s.steps%cancelEvery == 1 && s.ctx.Err() != nil {
		s.canceled = true
	}
	return s.canceled
}

func (s *search) err() error {
	if s.canceled {
		return cqerr.Canceled(s.ctx)
	}
	return nil
}

// tuples returns the relation of at and its tuples agreeing with the
// assigned argument of at with the fewest; ok is false when no
// argument of at is assigned.
func (s *search) tuples(at *atom) (r *trel, list []int32, ok bool) {
	r = &s.tgt.rels[s.rel[at.rel]]
	for p, x := range at.args {
		if v := s.assign[x]; v >= 0 {
			if l := r.by[p].row(v); !ok || len(l) < len(list) {
				list, ok = l, true
			}
		}
	}
	return r, list, ok
}

// match reports whether tuple t of r avoids the dropped element, agrees
// with the assignment on at's assigned arguments and with itself on
// at's repeated unassigned ones.
func (s *search) match(at *atom, r *trel, t int32) bool {
	row := r.rows[int(t)*r.ar:][:r.ar]
	for p, x := range at.args {
		if row[p] == s.drop {
			return false
		}
		if v := s.assign[x]; v >= 0 {
			if row[p] != v {
				return false
			}
		} else if q := slices.Index(at.args[:p], x); q >= 0 && row[q] != row[p] {
			return false
		}
	}
	return true
}

// holds reports whether the fully assigned atom at maps to a tuple.
func (s *search) holds(at *atom) bool {
	r, list, _ := s.tuples(at)
	for _, t := range list {
		if s.match(at, r, t) {
			return true
		}
	}
	return false
}

// cands writes into out the candidates of the unassigned element i —
// its static domain cut by every atom of i with an assigned argument —
// and returns how many there are.
func (s *search) cands(i int32, out []uint64) int {
	w := s.tgt.w
	copy(out, s.dom[int(i)*w:])
	tmp := s.masks[len(s.masks)-w:]
	for _, ai := range s.src.atomOf.row(i) {
		at := &s.src.atoms[ai]
		if at.self {
			continue
		}
		if r := &s.tgt.rels[s.rel[at.rel]]; r.nb != nil {
			// A binary atom: one value mask of the other argument. The
			// dropped element only ever adds its own bit, outside out.
			p := 0
			if at.args[0] == i {
				p = 1
			}
			v := s.assign[at.args[p]]
			if v < 0 {
				continue
			}
			and(out, r.nb[(p*len(s.tgt.vals)+int(v))*w:])
		} else {
			r, list, ok := s.tuples(at)
			if !ok {
				continue
			}
			ip := slices.Index(at.args, i)
			clear(tmp)
			for _, t := range list {
				if s.match(at, r, t) {
					set(tmp, r.rows[int(t)*r.ar+ip])
				}
			}
			and(out, tmp)
		}
		if count(out) == 0 {
			return 0
		}
	}
	return count(out)
}

// pick chooses the next element as the map-based solver did: among the
// unassigned elements flagged in among, or else on the frontier (those
// co-occurring with an assigned element), the one with the fewest
// candidates; with neither, the one with the smallest static domain,
// taking elements in no atom only once none in an atom is left: they
// constrain nothing, so picking them first would make a failing search
// retry the rest once per combination of their values. Ties go to the
// smallest element. It returns -1 when there is nothing to choose, and
// the candidates in one of depth's masks.
func (s *search) pick(depth int, among []bool) (int32, int, []uint64) {
	w := s.tgt.w
	cur, best := s.masks[2*depth*w:(2*depth+1)*w], s.masks[(2*depth+1)*w:(2*depth+2)*w]
	v, n := int32(-1), 0
	for i, a := range s.assign {
		if a != unset || (among == nil && s.front[i] == 0) || (among != nil && !among[i]) {
			continue
		}
		if c := s.cands(int32(i), cur); v < 0 || c < n {
			v, n, cur, best = int32(i), c, best, cur
			if c == 0 {
				break
			}
		}
	}
	if v >= 0 || among != nil {
		return v, n, best
	}
	free := false // v is in no atom
	for i, a := range s.assign {
		if a != unset {
			continue
		}
		f := s.src.atomOf.off[i] == s.src.atomOf.off[i+1]
		if c := count(s.dom[i*w : (i+1)*w]); v < 0 || (free && !f) || (f == free && c < n) {
			v, n, free = int32(i), c, f
		}
	}
	if v >= 0 {
		copy(best, s.dom[int(v)*w:])
	}
	return v, n, best
}

// solve extends the assignment depth elements deep. With among set it
// first assigns the flagged elements and, once they are all assigned,
// calls fn only if the rest of the assignment completes; otherwise it
// calls fn on every complete assignment. A nil fn stops at the first
// one and sets found. solve returns false when fn or the context
// stopped it, true once the space is exhausted.
func (s *search) solve(depth int, among []bool, fn func() bool) bool {
	if s.cancelled() {
		return false
	}
	v, n, cand := s.pick(depth, among)
	if v < 0 {
		if among != nil {
			s.found = false
			if s.solve(depth, nil, nil); !s.found {
				return true
			}
		}
		if fn == nil {
			s.found = true
			return false
		}
		return fn()
	}
	if n == 0 {
		return true // dead end: continue overall search
	}
	s.bump(v, 1)
	done := true
values:
	for wi, word := range cand {
		for ; word != 0; word &= word - 1 {
			s.assign[v] = int32(wi*64 + bits.TrailingZeros64(word))
			if s.selfOK(v) && !s.solve(depth+1, among, fn) {
				done = false
				break values
			}
		}
	}
	s.assign[v] = unset
	s.bump(v, -1)
	return done
}

// selfOK checks the atoms over v alone, the only atoms the candidates
// of v do not already guarantee once v is assigned.
func (s *search) selfOK(v int32) bool {
	for _, ai := range s.src.atomOf.row(v) {
		if at := &s.src.atoms[ai]; at.self && !s.holds(at) {
			return false
		}
	}
	return true
}

// emit copies the complete assignment into a fresh homomorphism.
func (s *search) emit() map[int]int {
	h := make(map[int]int, len(s.assign))
	for i, a := range s.assign {
		if a >= 0 {
			h[s.src.vals[i]] = s.tgt.vals[a]
		}
	}
	for _, p := range s.pins {
		h[p[0]] = p[1]
	}
	return h
}

// value is the image of element e under the current assignment; 0
// for an element outside the source.
func (s *search) value(e int) int {
	if i, ok := idOf(s.src.vals, e); ok && s.assign[i] >= 0 {
		return s.tgt.vals[s.assign[i]]
	}
	for _, p := range s.pins {
		if p[0] == e {
			return p[1]
		}
	}
	return 0
}

// newCall compiles a → b for one search under pre and allowed, or
// returns nil when the instance fails before the search starts.
func newCall(ctx context.Context, a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) *search {
	var extra []int
	for _, list := range allowed {
		extra = append(extra, list...)
	}
	var preA, preB []int
	for e, v := range pre {
		preA, preB = append(preA, e), append(preB, v)
	}
	s := &search{}
	s.init(ctx, compileSource(DenseOf(a)), compileTarget(DenseOf(b), extra))
	if !s.start(-1, allowed, preA, preB) {
		return nil
	}
	return s
}

func findCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) (map[int]int, bool, error) {
	var h map[int]int
	_, err := forEachCtx(ctx, a, b, pre, allowed, func(g map[int]int) bool { h = g; return false })
	if err != nil {
		return nil, false, err
	}
	return h, h != nil, nil
}

func forEachCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, allowed map[int][]int, fn func(h map[int]int) bool) (bool, error) {
	s := newCall(ctx, a, b, pre, allowed)
	if s == nil {
		return true, nil
	}
	var f func() bool // nil: stop at the first homomorphism
	if fn != nil {
		f = func() bool { return fn(s.emit()) }
	}
	done := s.solve(0, nil, f)
	if err := s.err(); err != nil {
		return false, err
	}
	return done, nil
}

// Exists reports whether there is a homomorphism from a to b extending
// the partial map pre.
func Exists(a, b *relstr.Structure, pre map[int]int) bool {
	ok, _ := existsCtx(nil, a, b, pre, nil)
	return ok
}

func existsCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) (bool, error) {
	done, err := forEachCtx(ctx, a, b, pre, allowed, nil)
	return !done && err == nil, err
}

// find returns a homomorphism from a to b extending pre, if one exists.
func find(a, b *relstr.Structure, pre map[int]int) (map[int]int, bool) {
	h, ok, _ := findCtx(nil, a, b, pre, nil)
	return h, ok
}

// ForEach enumerates every homomorphism from a to b extending pre,
// invoking fn on each. If fn returns false the enumeration stops early
// and ForEach returns false; otherwise it returns true.
func ForEach(a, b *relstr.Structure, pre map[int]int, fn func(h map[int]int) bool) bool {
	done, _ := forEachCtx(nil, a, b, pre, nil, fn)
	return done
}

// project is ProjectCtx without a context.
func project(a, b *relstr.Structure, pre map[int]int, proj []int, fn func(vals []int) bool) bool {
	done, _ := ProjectCtx(nil, a, b, pre, proj, fn)
	return done
}

// ProjectCtx enumerates the distinct values taken by the projection
// elements proj across all homomorphisms from a to b extending pre.
// For each distinct tuple of values for proj that extends to a full
// homomorphism, fn is called once. This is CQ evaluation when a is a
// tableau, proj its distinguished tuple and b a database. If fn returns
// false enumeration stops early (ProjectCtx then returns false). It
// returns (false, non-nil) when the context expired before the
// enumeration finished; answers already delivered to fn remain valid
// (they are sound regardless of where the search stopped).
func ProjectCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, proj []int, fn func(vals []int) bool) (bool, error) {
	s := newCall(ctx, a, b, pre, nil)
	if s == nil {
		return true, nil
	}
	// The projection elements are assigned first, each tuple of their
	// values once; the rest is only checked for a completion, so every
	// tuple reaches fn once.
	among := make([]bool, len(s.assign))
	for _, e := range proj {
		if i, ok := idOf(s.src.vals, e); ok {
			among[i] = true
		}
	}
	done := s.solve(0, among, func() bool {
		vals := make([]int, len(proj))
		for k, e := range proj {
			vals[k] = s.value(e)
		}
		return fn(vals)
	})
	if err := s.err(); err != nil {
		return false, err
	}
	return done, nil
}
