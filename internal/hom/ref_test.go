package hom

// This file keeps the map-based backtracking solver the dense kernel
// replaced, unchanged apart from renames, as the differential oracle
// for the kernel's tests: every entry point of the kernel must return
// exactly what this solver returns (the same homomorphisms in the same
// order, the same cores and retractions).

import (
	"context"
	"sort"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// refAtom is an atom of the source structure, as element IDs.
type refAtom struct {
	rel  string
	args []int
}

// refRelIndex indexes the target's tuples of one relation by position and
// value.
type refRelIndex struct {
	tuples   []relstr.Tuple
	byPosVal []map[int][]int // position → value → tuple indices
}

// refSource is the compiled left-hand side of a homomorphism search: the
// atoms of a structure and, per element, the atoms and the elements it
// co-occurs with.
type refSource struct {
	atoms    []refAtom
	varAtoms map[int][]int // element → indices into atoms
	varNbrs  map[int][]int // element → co-occurring elements
	dom      []int
}

// refTarget is the compiled right-hand side: per-position tuple indexes,
// built on first use of each relation.
type refTarget struct {
	s   *relstr.Structure
	idx map[string]*refRelIndex
	dom []int
}

// refProblem is a compiled homomorphism-search instance from a to b.
type refProblem struct {
	*refSource
	tgt     *refTarget
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

// cancelled polls the problem's context (if any) at a bounded rate and
// latches the result.
func (p *refProblem) cancelled() bool {
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
func (p *refProblem) cancelErr() error {
	if p.canceled {
		return cqerr.Canceled(p.ctx)
	}
	return nil
}

func refCompile(a, b *relstr.Structure) *refProblem { return refCompileRestricted(a, b, nil) }

// refCompileRestricted additionally intersects each source element's
// candidates with allowed[e] when present (used for level-based
// restrictions on balanced digraphs, Lemma 4.5).
func refCompileRestricted(a, b *relstr.Structure, allowed map[int][]int) *refProblem {
	return refNewProblem(refCompileSource(a), refNewTarget(b), allowed)
}

// refCompileSource compiles a as the left-hand side of a search.
func refCompileSource(a *relstr.Structure) *refSource {
	src := &refSource{
		varAtoms: map[int][]int{},
		varNbrs:  map[int][]int{},
		dom:      a.Domain(),
	}
	for _, rel := range a.Relations() {
		for _, t := range a.Tuples(rel) {
			ai := len(src.atoms)
			args := make([]int, len(t))
			copy(args, t)
			src.atoms = append(src.atoms, refAtom{rel: rel, args: args})
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

// refNewTarget wraps b as the right-hand side of a search; its indexes
// are built per relation on first use.
func refNewTarget(b *relstr.Structure) *refTarget {
	return &refTarget{s: b, idx: map[string]*refRelIndex{}, dom: b.Domain()}
}

// index returns the per-position index of relation rel of the target,
// or nil if the target holds no rel tuples. Only built indexes are
// cached, so looking up an absent relation never writes.
func (t *refTarget) index(rel string) *refRelIndex {
	if ri, ok := t.idx[rel]; ok {
		return ri
	}
	bts := t.s.Tuples(rel)
	if len(bts) == 0 {
		return nil
	}
	ri := &refRelIndex{tuples: bts, byPosVal: make([]map[int][]int, t.s.Arity(rel))}
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

// refNewProblem pairs a compiled source with a compiled target and derives
// the static per-element candidate lists.
func refNewProblem(src *refSource, tgt *refTarget, allowed map[int][]int) *refProblem {
	p := &refProblem{refSource: src, tgt: tgt, posCand: map[int][]int{}}
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
func (p *refProblem) candidates(v int, assign map[int]int) []int {
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
func (p *refProblem) atomsOK(v int, assign map[int]int) bool {
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
func (p *refProblem) selectVar(assign map[int]int, remaining []int, frontier map[int]int) (int, []int) {
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
	// Fresh component: smallest static candidate list, elements in no
	// atom last.
	bestLen, bestFree := -1, false
	for i, v := range remaining {
		l := len(p.posCand[v])
		if p.posCand[v] == nil {
			l = len(p.tgt.dom)
		}
		free := len(p.varAtoms[v]) == 0
		if bestLen == -1 || (bestFree && !free) || (free == bestFree && l < bestLen) {
			bestI, bestLen, bestFree = i, l, free
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
func (p *refProblem) solve(assign map[int]int, remaining []int, frontier map[int]int, fn func() bool) bool {
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
func (p *refProblem) initFrontier(assign map[int]int) map[int]int {
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
func (p *refProblem) prepare(pre map[int]int) (assign map[int]int, remaining []int, ok bool) {
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

// refExists reports whether there is a homomorphism from a to b extending
// the partial map pre.
func refExists(a, b *relstr.Structure, pre map[int]int) bool {
	_, ok := refFind(a, b, pre)
	return ok
}

// refExistsCtx is Exists under a context: it returns cqerr-wrapped
// cancellation when ctx expires mid-search.
func refExistsCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int) (bool, error) {
	_, ok, err := refFindImpl(ctx, a, b, pre)
	return ok, err
}

// refFind returns a homomorphism from a to b extending pre, if one exists.
func refFind(a, b *relstr.Structure, pre map[int]int) (map[int]int, bool) {
	h, ok, _ := refFindImpl(nil, a, b, pre)
	return h, ok
}

// refFindCtx is Find under a context.
func refFindCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int) (map[int]int, bool, error) {
	return refFindImpl(ctx, a, b, pre)
}

func refFindImpl(ctx context.Context, a, b *relstr.Structure, pre map[int]int) (map[int]int, bool, error) {
	p := refCompile(a, b)
	p.ctx = ctx
	return p.find(pre)
}

// find returns the first solution extending pre.
func (p *refProblem) find(pre map[int]int) (map[int]int, bool, error) {
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

// refForEach enumerates every homomorphism from a to b extending pre,
// invoking fn on each. If fn returns false the enumeration stops early
// and ForEach returns false; otherwise it returns true.
func refForEach(a, b *relstr.Structure, pre map[int]int, fn func(h map[int]int) bool) bool {
	done, _ := refForEachCtx(nil, a, b, pre, fn)
	return done
}

// refForEachCtx is ForEach under a context. It returns (false, non-nil)
// when the context expired before the enumeration finished.
func refForEachCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, fn func(h map[int]int) bool) (bool, error) {
	p := refCompile(a, b)
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

// refCount returns the number of homomorphisms from a to b extending pre.
func refCount(a, b *relstr.Structure, pre map[int]int) int {
	n := 0
	refForEach(a, b, pre, func(map[int]int) bool { n++; return true })
	return n
}

// refProject enumerates the distinct values taken by the projection
// elements proj across all homomorphisms from a to b extending pre.
// For each distinct tuple of values for proj that extends to a full
// homomorphism, fn is called once. This is CQ evaluation when a is a
// tableau, proj its distinguished tuple and b a database. If fn returns
// false enumeration stops early (Project then returns false).
func refProject(a, b *relstr.Structure, pre map[int]int, proj []int, fn func(vals []int) bool) bool {
	done, _ := refProjectCtx(nil, a, b, pre, proj, fn)
	return done
}

// refProjectCtx is Project under a context. It returns (false, non-nil)
// when the context expired before the enumeration finished; answers
// already delivered to fn remain valid (they are sound regardless of
// where the search stopped).
func refProjectCtx(ctx context.Context, a, b *relstr.Structure, pre map[int]int, proj []int, fn func(vals []int) bool) (bool, error) {
	p := refCompile(a, b)
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

// refExistsRestricted reports whether a homomorphism from a to b extending
// pre exists in which every source element e with an entry in allowed
// maps into allowed[e]. The restriction must be sound for the intended
// use — e.g. restricting balanced digraphs to level-preserving maps is
// justified by Lemma 4.5 of the paper (homomorphisms between balanced
// digraphs of equal height preserve levels).
func refExistsRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) bool {
	_, ok := refFindRestricted(a, b, pre, allowed)
	return ok
}

// refFindRestricted is Find under the candidate restriction allowed
// (see refExistsRestricted).
func refFindRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) (map[int]int, bool) {
	p := refCompileRestricted(a, b, allowed)
	assign, remaining, ok := p.prepare(pre)
	if !ok {
		return nil, false
	}
	var found map[int]int
	p.solve(assign, remaining, p.initFrontier(assign), func() bool {
		found = make(map[int]int, len(assign))
		for k, v := range assign {
			found[k] = v
		}
		return false
	})
	if found == nil {
		return nil, false
	}
	return found, true
}

// refForEachRestricted enumerates homomorphisms under the candidate
// restriction allowed; semantics otherwise match ForEach.
func refForEachRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int, fn func(h map[int]int) bool) bool {
	p := refCompileRestricted(a, b, allowed)
	assign, remaining, ok := p.prepare(pre)
	if !ok {
		return true
	}
	return p.solve(assign, remaining, p.initFrontier(assign), func() bool {
		h := make(map[int]int, len(assign))
		for k, v := range assign {
			h[k] = v
		}
		return fn(h)
	})
}

// refCountRestricted counts homomorphisms under the candidate restriction.
func refCountRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) int {
	n := 0
	refForEachRestricted(a, b, pre, allowed, func(map[int]int) bool { n++; return true })
	return n
}

// refDistMap is the partial map sending ā to b̄ pointwise, or false if
// the tuples differ in length or ā repeats an element b̄ does not.
func refDistMap(a, b []int) (map[int]int, bool) {
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

// refCompiled is a pointed structure prepared once for many Maps tests on
// either side: its atoms and co-occurrence lists as a source, its
// per-position tuple indexes as a target. It holds S by reference, so
// S must not change after Compile.
type refCompiled struct {
	Pointed
	src *refSource
	tgt *refTarget
}

// Compile prepares p for refMapsCompiledCtx.
func refCompilePointed(p Pointed) *refCompiled {
	c := &refCompiled{Pointed: p, src: refCompileSource(p.S), tgt: refNewTarget(p.S)}
	// Index every relation now, so later searches only read the target.
	for _, rel := range p.S.Relations() {
		c.tgt.index(rel)
	}
	return c
}

// refMapsCompiledCtx is the reference MapsCompiledCtx.
func refMapsCompiledCtx(ctx context.Context, a, b *refCompiled) (bool, error) {
	pre, ok := refDistMap(a.Dist, b.Dist)
	if !ok {
		return false, nil
	}
	p := refNewProblem(a.src, b.tgt, nil)
	p.ctx = ctx
	_, ok, err := p.find(pre)
	return ok, err
}

// refCore computes the core of the structure s with distinguished tuple
// dist: a minimal retract of (s, dist). The returned retraction maps
// each element of s to its image in the core; distinguished elements
// are fixed pointwise. Cores are unique up to isomorphism
// (Hell–Nešetřil), so the result is canonical up to renaming.
//
// The algorithm repeatedly looks for an endomorphism into the
// substructure avoiding some element; any non-core structure admits one
// that avoids at least one element, because a fact-losing endomorphism
// of a finite structure cannot be injective on the active domain.
func refCore(s *relstr.Structure, dist []int) (*relstr.Structure, map[int]int) {
	c, r, _ := refCoreCtx(nil, s, dist)
	return c, r
}

// refCoreCtx is Core under a context: cancellation aborts the retraction
// search and returns a cqerr-wrapped error.
func refCoreCtx(ctx context.Context, s *relstr.Structure, dist []int) (*relstr.Structure, map[int]int, error) {
	cur := s.Clone()
	// retract maps original elements to their current images.
	retract := map[int]int{}
	for _, e := range s.Domain() {
		retract[e] = e
	}
	fixed := map[int]bool{}
	pre := map[int]int{}
	for _, d := range dist {
		fixed[d] = true
		pre[d] = d
	}
	for {
		improved := false
		for _, v := range cur.Domain() {
			if fixed[v] {
				continue
			}
			sub := cur.Without(v)
			h, ok, err := refFindCtx(ctx, cur, sub, pre)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			cur = cur.Map(func(e int) int { return h[e] })
			for orig, img := range retract {
				retract[orig] = h[img]
			}
			improved = true
			break
		}
		if !improved {
			return cur, retract, nil
		}
	}
}

// refIsCore reports whether (s, dist) is a core: no homomorphism into a
// strictly contained substructure fixing dist pointwise.
func refIsCore(s *relstr.Structure, dist []int) bool {
	pre := map[int]int{}
	fixed := map[int]bool{}
	for _, d := range dist {
		pre[d] = d
		fixed[d] = true
	}
	for _, v := range s.Domain() {
		if fixed[v] {
			continue
		}
		if refExists(s, s.Without(v), pre) {
			return false
		}
	}
	return true
}
