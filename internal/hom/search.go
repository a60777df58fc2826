// Package hom implements homomorphism search between relational
// structures, along with the derived notions the paper builds on:
// cores, CQ minimization, containment and equivalence of CQs, and the
// homomorphism preorder on tableaux.
//
// The search is a backtracking constraint solver with per-position
// indexes on the target, dynamic most-constrained-variable selection,
// and candidate filtering through partially assigned atoms. It is exact
// (CQ evaluation / homomorphism existence is NP-complete; the paper's
// Section 2).
package hom

import (
	"context"
	"sort"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// patom is an atom of the source structure, as element IDs.
type patom struct {
	rel  string
	args []int
}

// relIndex indexes the target's tuples of one relation by position and
// value.
type relIndex struct {
	tuples   []relstr.Tuple
	byPosVal []map[int][]int // position → value → tuple indices
}

// source is the compiled left-hand side of a homomorphism search: the
// atoms of a structure and, per element, the atoms and the elements it
// co-occurs with.
type source struct {
	atoms    []patom
	varAtoms map[int][]int // element → indices into atoms
	varNbrs  map[int][]int // element → co-occurring elements
	dom      []int
}

// target is the compiled right-hand side: per-position tuple indexes,
// built on first use of each relation.
type target struct {
	s   *relstr.Structure
	idx map[string]*relIndex
	dom []int
}

// problem is a compiled homomorphism-search instance from a to b.
type problem struct {
	*source
	tgt     *target
	posCand map[int][]int // static candidate list per source element; nil = whole domain
	unsat   bool

	// Cooperative cancellation: when ctx is non-nil the solver polls it
	// every cancelEvery search nodes and abandons the search, leaving
	// canceled set so callers can distinguish "exhausted" from
	// "interrupted by the context".
	ctx      context.Context
	steps    uint
	canceled bool
}

// cancelEvery is how many solver nodes pass between context polls: a
// power of two so the check compiles to a mask, small enough that
// cancellation is observed within microseconds on realistic instances.
const cancelEvery = 256

// cancelled polls the problem's context (if any) at a bounded rate and
// latches the result.
func (p *problem) cancelled() bool {
	if p.canceled {
		return true
	}
	if p.ctx == nil {
		return false
	}
	// Poll on the first node (so an already-expired context is seen
	// even on tiny instances) and every cancelEvery nodes after.
	p.steps++
	if p.steps%cancelEvery == 1 && p.ctx.Err() != nil {
		p.canceled = true
	}
	return p.canceled
}

// cancelErr converts the latched cancellation flag into a typed error.
func (p *problem) cancelErr() error {
	if p.canceled {
		return cqerr.Canceled(p.ctx)
	}
	return nil
}

func compile(a, b *relstr.Structure) *problem { return compileRestricted(a, b, nil) }

// compileRestricted additionally intersects each source element's
// candidates with allowed[e] when present (used for level-based
// restrictions on balanced digraphs, Lemma 4.5).
func compileRestricted(a, b *relstr.Structure, allowed map[int][]int) *problem {
	return newProblem(compileSource(a), newTarget(b), allowed)
}

// compileSource compiles a as the left-hand side of a search.
func compileSource(a *relstr.Structure) *source {
	src := &source{
		varAtoms: map[int][]int{},
		varNbrs:  map[int][]int{},
		dom:      a.Domain(),
	}
	for _, rel := range a.Relations() {
		for _, t := range a.Tuples(rel) {
			ai := len(src.atoms)
			args := make([]int, len(t))
			copy(args, t)
			src.atoms = append(src.atoms, patom{rel: rel, args: args})
			seen := map[int]bool{}
			for _, e := range args {
				if !seen[e] {
					seen[e] = true
					src.varAtoms[e] = append(src.varAtoms[e], ai)
				}
			}
			for e := range seen {
				for f := range seen {
					if e != f {
						src.varNbrs[e] = append(src.varNbrs[e], f)
					}
				}
			}
		}
	}
	return src
}

// newTarget wraps b as the right-hand side of a search; its indexes
// are built per relation on first use.
func newTarget(b *relstr.Structure) *target {
	return &target{s: b, idx: map[string]*relIndex{}, dom: b.Domain()}
}

// index returns the per-position index of relation rel of the target,
// or nil if the target holds no rel tuples. Only built indexes are
// cached, so looking up an absent relation never writes.
func (t *target) index(rel string) *relIndex {
	if ri, ok := t.idx[rel]; ok {
		return ri
	}
	bts := t.s.Tuples(rel)
	if len(bts) == 0 {
		return nil
	}
	ri := &relIndex{tuples: bts, byPosVal: make([]map[int][]int, t.s.Arity(rel))}
	for pos := range ri.byPosVal {
		ri.byPosVal[pos] = map[int][]int{}
	}
	for ti, tup := range bts {
		for pos, v := range tup {
			ri.byPosVal[pos][v] = append(ri.byPosVal[pos][v], ti)
		}
	}
	t.idx[rel] = ri
	return ri
}

// newProblem pairs a compiled source with a compiled target and derives
// the static per-element candidate lists.
func newProblem(src *source, tgt *target, allowed map[int][]int) *problem {
	p := &problem{source: src, tgt: tgt, posCand: map[int][]int{}}
	for _, at := range src.atoms {
		if tgt.index(at.rel) == nil {
			p.unsat = true
			return p
		}
	}

	// Static per-position candidate sets.
	for _, e := range src.dom {
		var cand map[int]bool
		if allowed != nil {
			if list, ok := allowed[e]; ok {
				cand = map[int]bool{}
				for _, v := range list {
					cand[v] = true
				}
			}
		}
		for _, ai := range src.varAtoms[e] {
			at := src.atoms[ai]
			ri := tgt.idx[at.rel]
			for pos, arg := range at.args {
				if arg != e {
					continue
				}
				vals := ri.byPosVal[pos]
				if cand == nil {
					cand = make(map[int]bool, len(vals))
					for v := range vals {
						cand[v] = true
					}
				} else {
					for v := range cand {
						if _, ok := vals[v]; !ok {
							delete(cand, v)
						}
					}
				}
			}
		}
		if cand == nil {
			p.posCand[e] = nil // unconstrained element: whole target domain
			continue
		}
		list := make([]int, 0, len(cand))
		for v := range cand {
			list = append(list, v)
		}
		sort.Ints(list)
		if len(list) == 0 {
			p.unsat = true
			return p
		}
		p.posCand[e] = list
	}
	return p
}

// candidates returns the feasible target values for source element v
// under the partial assignment, by filtering target tuples through
// every atom of v that has at least one assigned argument.
func (p *problem) candidates(v int, assign map[int]int) []int {
	var cand map[int]bool
	base := p.posCand[v]
	if base == nil {
		base = p.tgt.dom
	}
	restrict := func(vals map[int]bool) {
		if cand == nil {
			cand = vals
			return
		}
		for x := range cand {
			if !vals[x] {
				delete(cand, x)
			}
		}
	}
	for _, ai := range p.varAtoms[v] {
		at := p.atoms[ai]
		hasAssigned := false
		for _, arg := range at.args {
			if _, ok := assign[arg]; ok {
				hasAssigned = true
				break
			}
		}
		if !hasAssigned {
			continue
		}
		ri := p.tgt.idx[at.rel]
		// Pick the assigned position with the fewest matching tuples.
		bestPos, bestLen := -1, -1
		for pos, arg := range at.args {
			if val, ok := assign[arg]; ok {
				l := len(ri.byPosVal[pos][val])
				if bestPos == -1 || l < bestLen {
					bestPos, bestLen = pos, l
				}
			}
		}
		val := assign[at.args[bestPos]]
		vals := map[int]bool{}
	tuples:
		for _, ti := range ri.byPosVal[bestPos][val] {
			t := ri.tuples[ti]
			// Full pattern check: assigned args must match; repeated
			// unassigned vars must agree within the tuple.
			pat := map[int]int{}
			for pos, arg := range at.args {
				if w, ok := assign[arg]; ok {
					if t[pos] != w {
						continue tuples
					}
					continue
				}
				if prev, ok := pat[arg]; ok {
					if prev != t[pos] {
						continue tuples
					}
				} else {
					pat[arg] = t[pos]
				}
			}
			if w, ok := pat[v]; ok {
				vals[w] = true
			}
		}
		restrict(vals)
		if len(cand) == 0 {
			return nil
		}
	}
	if cand == nil {
		return base
	}
	out := make([]int, 0, len(cand))
	for x := range cand {
		// Respect the static positional candidates.
		out = append(out, x)
	}
	if p.posCand[v] != nil {
		allowed := map[int]bool{}
		for _, x := range p.posCand[v] {
			allowed[x] = true
		}
		filtered := out[:0]
		for _, x := range out {
			if allowed[x] {
				filtered = append(filtered, x)
			}
		}
		out = filtered
	}
	sort.Ints(out)
	return out
}

// atomSatisfied checks, after assigning element v, every atom of v that
// became fully assigned.
func (p *problem) atomsOK(v int, assign map[int]int) bool {
	for _, ai := range p.varAtoms[v] {
		at := p.atoms[ai]
		ri := p.tgt.idx[at.rel]
		full := true
		img := make([]int, len(at.args))
		for pos, arg := range at.args {
			w, ok := assign[arg]
			if !ok {
				full = false
				break
			}
			img[pos] = w
		}
		if !full {
			continue
		}
		// Membership check via the smallest index list.
		bestPos, bestLen := 0, -1
		for pos := range img {
			l := len(ri.byPosVal[pos][img[pos]])
			if bestLen == -1 || l < bestLen {
				bestPos, bestLen = pos, l
			}
		}
		found := false
	search:
		for _, ti := range ri.byPosVal[bestPos][img[bestPos]] {
			t := ri.tuples[ti]
			for pos := range img {
				if t[pos] != img[pos] {
					continue search
				}
			}
			found = true
			break
		}
		if !found {
			return false
		}
	}
	return true
}

// selectVar picks the next element to assign: the most-constrained
// frontier element (one sharing an atom with an assigned element), or —
// when the frontier is empty, e.g. at the start or on a fresh connected
// component — the element with the smallest static candidate list.
// It returns the index into remaining and the candidate values.
func (p *problem) selectVar(assign map[int]int, remaining []int, frontier map[int]int) (int, []int) {
	bestI := -1
	var bestCand []int
	onFrontier := false
	for i, v := range remaining {
		if frontier[v] > 0 {
			c := p.candidates(v, assign)
			if !onFrontier || len(c) < len(bestCand) {
				bestI, bestCand, onFrontier = i, c, true
				if len(c) == 0 {
					return bestI, bestCand
				}
			}
		}
	}
	if onFrontier {
		return bestI, bestCand
	}
	// Fresh component: smallest static candidate list.
	bestLen := -1
	for i, v := range remaining {
		l := len(p.posCand[v])
		if p.posCand[v] == nil {
			l = len(p.tgt.dom)
		}
		if bestLen == -1 || l < bestLen {
			bestI, bestLen = i, l
		}
	}
	v := remaining[bestI]
	if p.posCand[v] == nil {
		return bestI, p.tgt.dom
	}
	return bestI, p.posCand[v]
}

// solve enumerates assignments of the elements in remaining, extending
// assign. frontier counts, per unassigned element, how many of its
// co-occurring elements are assigned. fn is invoked on every complete
// assignment; if it returns false the search stops and solve returns
// false ("interrupted"); otherwise solve returns true after exhausting
// the space.
func (p *problem) solve(assign map[int]int, remaining []int, frontier map[int]int, fn func() bool) bool {
	if p.cancelled() {
		return false
	}
	if len(remaining) == 0 {
		return fn()
	}
	bestI, bestCand := p.selectVar(assign, remaining, frontier)
	if len(bestCand) == 0 {
		return true // dead end: continue overall search
	}
	v := remaining[bestI]
	rest := make([]int, 0, len(remaining)-1)
	rest = append(rest, remaining[:bestI]...)
	rest = append(rest, remaining[bestI+1:]...)
	for _, w := range p.varNbrs[v] {
		frontier[w]++
	}
	for _, val := range bestCand {
		assign[v] = val
		if p.atomsOK(v, assign) {
			if !p.solve(assign, rest, frontier, fn) {
				delete(assign, v)
				for _, w := range p.varNbrs[v] {
					frontier[w]--
				}
				return false
			}
		}
		delete(assign, v)
	}
	for _, w := range p.varNbrs[v] {
		frontier[w]--
	}
	return true
}

// initFrontier counts assigned neighbors for the initial assignment.
func (p *problem) initFrontier(assign map[int]int) map[int]int {
	frontier := map[int]int{}
	for e := range assign {
		for _, w := range p.varNbrs[e] {
			frontier[w]++
		}
	}
	return frontier
}

// prepare validates the pre-assignment and returns the initial
// assignment plus the list of unassigned elements, or ok=false if pre
// is immediately inconsistent.
func (p *problem) prepare(pre map[int]int) (assign map[int]int, remaining []int, ok bool) {
	if p.unsat {
		return nil, nil, false
	}
	assign = make(map[int]int, len(pre))
	inDom := map[int]bool{}
	for _, e := range p.dom {
		inDom[e] = true
	}
	for e, w := range pre {
		if !inDom[e] {
			continue // pre may mention elements outside the active domain
		}
		assign[e] = w
	}
	// Check atoms already fully assigned and positional feasibility.
	for e := range assign {
		if !p.atomsOK(e, assign) {
			return nil, nil, false
		}
		if pc := p.posCand[e]; pc != nil {
			i := sort.SearchInts(pc, assign[e])
			if i >= len(pc) || pc[i] != assign[e] {
				return nil, nil, false
			}
		}
	}
	for _, e := range p.dom {
		if _, done := assign[e]; !done {
			remaining = append(remaining, e)
		}
	}
	return assign, remaining, true
}

// Exists reports whether there is a homomorphism from a to b extending
// the partial map pre.
func Exists(a, b *relstr.Structure, pre map[int]int) bool {
	_, ok := Find(a, b, pre)
	return ok
}

// ExistsCtx is Exists under a context: it returns cqerr-wrapped
// cancellation when ctx expires mid-search.
func ExistsCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int) (bool, error) {
	_, ok, err := findCtx(ctx, a, b, pre)
	return ok, err
}

// Find returns a homomorphism from a to b extending pre, if one exists.
func Find(a, b *relstr.Structure, pre map[int]int) (map[int]int, bool) {
	h, ok, _ := findCtx(nil, a, b, pre)
	return h, ok
}

// FindCtx is Find under a context.
func FindCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int) (map[int]int, bool, error) {
	return findCtx(ctx, a, b, pre)
}

func findCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int) (map[int]int, bool, error) {
	p := compile(a, b)
	p.ctx = ctx
	return p.find(pre)
}

// find returns the first solution extending pre.
func (p *problem) find(pre map[int]int) (map[int]int, bool, error) {
	assign, remaining, ok := p.prepare(pre)
	if !ok {
		return nil, false, nil
	}
	var found map[int]int
	p.solve(assign, remaining, p.initFrontier(assign), func() bool {
		found = make(map[int]int, len(assign))
		for k, v := range assign {
			found[k] = v
		}
		return false // stop at first solution
	})
	if err := p.cancelErr(); err != nil {
		return nil, false, err
	}
	if found == nil {
		return nil, false, nil
	}
	return found, true, nil
}

// ForEach enumerates every homomorphism from a to b extending pre,
// invoking fn on each. If fn returns false the enumeration stops early
// and ForEach returns false; otherwise it returns true.
func ForEach(a, b *relstr.Structure, pre map[int]int, fn func(h map[int]int) bool) bool {
	done, _ := ForEachCtx(nil, a, b, pre, fn)
	return done
}

// ForEachCtx is ForEach under a context. It returns (false, non-nil)
// when the context expired before the enumeration finished.
func ForEachCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, fn func(h map[int]int) bool) (bool, error) {
	p := compile(a, b)
	p.ctx = ctx
	assign, remaining, ok := p.prepare(pre)
	if !ok {
		return true, nil
	}
	done := p.solve(assign, remaining, p.initFrontier(assign), func() bool {
		h := make(map[int]int, len(assign))
		for k, v := range assign {
			h[k] = v
		}
		return fn(h)
	})
	if err := p.cancelErr(); err != nil {
		return false, err
	}
	return done, nil
}

// Count returns the number of homomorphisms from a to b extending pre.
func Count(a, b *relstr.Structure, pre map[int]int) int {
	n := 0
	ForEach(a, b, pre, func(map[int]int) bool { n++; return true })
	return n
}

// Project enumerates the distinct values taken by the projection
// elements proj across all homomorphisms from a to b extending pre.
// For each distinct tuple of values for proj that extends to a full
// homomorphism, fn is called once. This is CQ evaluation when a is a
// tableau, proj its distinguished tuple and b a database. If fn returns
// false enumeration stops early (Project then returns false).
func Project(a, b *relstr.Structure, pre map[int]int, proj []int, fn func(vals []int) bool) bool {
	done, _ := ProjectCtx(nil, a, b, pre, proj, fn)
	return done
}

// ProjectCtx is Project under a context. It returns (false, non-nil)
// when the context expired before the enumeration finished; answers
// already delivered to fn remain valid (they are sound regardless of
// where the search stopped).
func ProjectCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, proj []int, fn func(vals []int) bool) (bool, error) {
	p := compile(a, b)
	p.ctx = ctx
	assign, remaining, ok := p.prepare(pre)
	if !ok {
		return true, nil
	}
	// Split remaining into projection elements (assigned first) and the
	// rest (existence-checked).
	isProj := map[int]bool{}
	for _, e := range proj {
		isProj[e] = true
	}
	var projRemaining, rest []int
	for _, e := range remaining {
		if isProj[e] {
			projRemaining = append(projRemaining, e)
		} else {
			rest = append(rest, e)
		}
	}
	var seen relstr.TupleSet
	var assignProj func(rem []int) bool
	assignProj = func(rem []int) bool {
		if p.cancelled() {
			return false
		}
		if len(rem) == 0 {
			// All projection elements assigned; does a completion exist?
			complete := false
			p.solve(assign, rest, p.initFrontier(assign), func() bool { complete = true; return false })
			if !complete {
				return true
			}
			vals := make([]int, len(proj))
			for i, e := range proj {
				vals[i] = assign[e]
			}
			if !seen.Add(vals) {
				return true
			}
			return fn(vals)
		}
		// MRV within the projection elements.
		bestI := -1
		var bestCand []int
		for i, v := range rem {
			c := p.candidates(v, assign)
			if bestI == -1 || len(c) < len(bestCand) {
				bestI, bestCand = i, c
				if len(c) == 0 {
					break
				}
			}
		}
		if len(bestCand) == 0 {
			return true
		}
		v := rem[bestI]
		next := make([]int, 0, len(rem)-1)
		next = append(next, rem[:bestI]...)
		next = append(next, rem[bestI+1:]...)
		for _, val := range bestCand {
			assign[v] = val
			if p.atomsOK(v, assign) {
				if !assignProj(next) {
					delete(assign, v)
					return false
				}
			}
			delete(assign, v)
		}
		return true
	}
	done := assignProj(projRemaining)
	if err := p.cancelErr(); err != nil {
		return false, err
	}
	return done, nil
}
