package eval

// Bag mode: the evaluation plan of cyclic queries. NewPlan decomposes
// the query's primal graph into a tree of bags and compiles one search
// program over it; every evaluation is a first-hit backtracking search
// through that program that probes the snapshot's own views and indexes.
//
// Plan time:
//   - tw.GreedyDecompose builds the decomposition from a greedy
//     min-degree/min-fill elimination order (polynomial, never the
//     exact 2ⁿ DP) and contracts subsumed bags;
//   - every atom is assigned to each bag containing its variables;
//   - each tree is rooted at the bag holding the most head variables;
//   - a bag with a variable that neither its separator (the variables
//     it shares with its parent, bound on arrival) nor one of its own
//     atoms binds absorbs the child bag holding that variable. Merging
//     the other way never helps: the variable is absent from the
//     parent, so it occurs only below. After the merges a bag's local
//     rows are enumerated by probing its atoms, never by a cross
//     product with the domain.
//
// A bag whose subtree has no head variable outside its separator is an
// existence check: its outcome depends on nothing but the separator
// values (every variable of the subtree bound elsewhere is in the
// separator), so it is memoised per (bag, separator values) for the
// rest of the call. The remaining bags — the head part, a connected
// top of the tree — are searched in pre-order as one program of atom
// probes, each followed by the existence checks whose separators it
// completes. Once the last head variable is bound the search cuts back
// to that step after the first witness, and skips head tuples already
// found, so each answer costs one witness search.
//
// The bags are searched rather than materialised: a materialised bag
// is the join of its atoms, which is as large as what the naive engine
// explores, while the search stops at the first witness and never
// builds a bag relation.
//
// Building a bag tree and compiling it are separate steps: decompose
// builds a cyclic plan's tree, joinTreeBags lays out join trees of an
// acyclic plan with one bag per node, and compile turns either into
// programs. compile takes two inputs bag plans leave empty, both for
// incremental maintenance (incr.go): pre-bound variables, bound before
// the search starts, which join an existence bag's memo key when they
// occur in its subtree; and a seeded atom, read from a standalone view
// of seed rows and placed first in its bag's program. A run may carry
// a row budget: every visited row is charged, and an exhausted budget
// stops the search with errIncrBudget.
//
// A run may also read a forest reduced by the bottom-up semijoin pass
// (forestRun): each atom reads its forest node's view and liveness
// bitmap, and the search skips dead row ids. Every live row of the
// reduced forest extends to an assignment of its subtree, and the
// search reaches a bag only through its parent's live binding, so it
// never meets a dead end and skips every existence check; such a
// program lays out no existence bag program at all (forestBags).
// Every acyclic enumeration — Eval and streams — runs the whole join
// forest this way (Plan.search), and the counts of node and sample
// trees and IncrState's re-evaluation each tree. NewPlan roots every
// join tree at the top of its pruned head core, so a subtree that
// carries no head variable outside its separator hangs below the core
// as an existence bag, and these searches never visit its rows. Ranked
// reads resolve the probes of their visit steps the same way, over a
// forest reduced toward their first visits (rank.go).

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/obs"
	"cqapprox/internal/relstr"
	"cqapprox/internal/tw"
)

// bagStep is one atom probe of a search program: the view rows of the
// atom agreeing with the bound columns bind the free ones.
type bagStep struct {
	id        int   // slot of the step's per-call index resolution
	atom      int   // index into bagPlan.atoms
	bound     []int // view columns bound before the step
	boundVars []int
	free      []int // view columns the step binds
	freeVars  []int
	checks    []int // existence bags whose separator the step completes
}

// bagNode is one bag of the decomposition.
type bagNode struct {
	vars     []int // the bag's variables, ascending
	atoms    []int // atoms whose variables the bag contains
	parent   int   // -1 for roots
	children []int
	sep      []int // variables shared with the parent
	key      []int // sep plus the pre-bound variables of the subtree (the memo key)
	exist    bool  // no head variable below outside sep: a memoised existence check
	// Existence bags only: the checks of children whose separators are
	// bound on arrival, then the local program.
	pre   []int
	steps []bagStep
}

// bagPlan is a bag tree and, once compiled, its static search program.
type bagPlan struct {
	atoms    []patom
	avars    [][]int // per atom, its distinct variables (the view columns)
	bags     []bagNode
	roots    []int
	head     []int     // the variables the search emits
	prebound []int     // variables bound before the search starts
	seed     int       // atom read from the run's seed view; -1 if none
	pre      []int     // existence checks due before the first head step
	steps    []bagStep // the head part, in pre-order over its bags
	lastHead int       // the last step binding a head variable; -1 if none
	numVars  int
	numSteps int
	// reduced: the program only runs over reduced forests (forestRun),
	// where every existence check holds, so its existence bags have no
	// program and its runs no memo.
	reduced bool
	// found is how many head tuples the last complete run found: the
	// next run reserves that many in its seen set (flatSet.reserve), and
	// Eval in its answer slab, rather than regrowing buffers a pooled
	// run gave up.
	found atomic.Int64
}

// newBags starts a bag tree over atoms, whose distinct variables are
// avars, searching for head.
func newBags(atoms []patom, avars [][]int, head []int) *bagPlan {
	bp := &bagPlan{atoms: atoms, avars: avars, head: head}
	for _, vs := range avars {
		for _, v := range vs {
			bp.numVars = max(bp.numVars, v+1)
		}
	}
	for _, v := range head {
		bp.numVars = max(bp.numVars, v+1)
	}
	return bp
}

// decompose builds the bag tree of a cyclic plan: the greedy
// decomposition of the tableau, rooted and merged as the package
// comment describes.
func decompose(tb *cq.Tableau) *bagPlan {
	atoms := atomList(tb.S)
	avars := make([][]int, len(atoms))
	for i, a := range atoms {
		avars[i] = a.distinctVars()
	}
	bp := newBags(atoms, avars, tb.Dist)
	var verts []int                // dense vertex → variable
	vid := make([]int, bp.numVars) // variable → dense vertex +1 (0: not seen)
	addVar := func(v int) {
		if vid[v] == 0 {
			verts = append(verts, v)
			vid[v] = len(verts)
		}
	}
	var edges [][2]int
	for _, vs := range bp.avars {
		for j, u := range vs {
			addVar(u)
			for _, w := range vs[:j] {
				edges = append(edges, [2]int{vid[u] - 1, vid[w] - 1})
			}
		}
	}
	for _, v := range bp.head {
		addVar(v)
	}
	d := tw.GreedyDecompose(len(verts), edges)
	isHead := make([]bool, bp.numVars)
	for _, v := range bp.head {
		isHead[v] = true
	}
	bags := make([]bagNode, len(d.Bags))
	adj := make([][]int, len(d.Bags))
	for i, b := range d.Bags {
		bags[i].vars = make([]int, len(b))
		for k, x := range b {
			bags[i].vars[k] = verts[x]
		}
		slices.Sort(bags[i].vars)
		bags[i].parent = -1
	}
	for _, e := range d.Tree {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	headCount := func(b int) int {
		n := 0
		for _, v := range bags[b].vars {
			if isHead[v] {
				n++
			}
		}
		return n
	}
	// Root each tree at its bag holding the most head variables and
	// orient it from there.
	seen := make([]bool, len(bags))
	for r := range bags {
		if seen[r] {
			continue
		}
		tree := []int{r}
		seen[r] = true
		for k := 0; k < len(tree); k++ {
			for _, w := range adj[tree[k]] {
				if !seen[w] {
					seen[w] = true
					tree = append(tree, w)
				}
			}
		}
		root := r
		for _, b := range tree {
			if headCount(b) > headCount(root) {
				root = b
			}
		}
		bp.roots = append(bp.roots, root)
		for queue := []int{root}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, w := range adj[u] {
				if w != bags[u].parent {
					bags[w].parent = u
					bags[u].children = append(bags[u].children, w)
					queue = append(queue, w)
				}
			}
		}
	}
	bp.bags = bags
	for i := range bp.bags {
		bp.assignAtoms(i)
	}
	// The merge rule, top-down.
	for queue := slices.Clone(bp.roots); len(queue) > 0; queue = queue[1:] {
		b := queue[0]
		for {
			u := bp.unbound(b)
			if u < 0 {
				break
			}
			c := -1
			for _, k := range bp.bags[b].children {
				if slices.Contains(bp.bags[k].vars, u) {
					c = k
					break
				}
			}
			if c < 0 {
				panic(fmt.Sprintf("eval: variable %d occurs in no atom", u))
			}
			bp.absorb(b, c)
		}
		queue = append(queue, bp.bags[b].children...)
	}
	bp.compact()
	return bp
}

// joinTreeBags lays out the join trees holding nodes roots of an
// acyclic plan as a bag tree, each rooted at its node in roots: one bag
// per node, holding the node's atom, in pre-order.
func (p *Plan) joinTreeBags(head []int, roots ...int) *bagPlan {
	bp := newBags(p.atoms, p.vars, head)
	var walk func(i, from, parent int)
	walk = func(i, from, parent int) {
		b := len(bp.bags)
		bp.bags = append(bp.bags, bagNode{vars: slices.Sorted(slices.Values(bp.avars[i])), atoms: []int{i}, parent: parent})
		if parent >= 0 {
			bp.bags[parent].children = append(bp.bags[parent].children, b)
		}
		for _, m := range append(slices.Clone(p.sched.children[i]), p.jt.Parent[i]) {
			if m >= 0 && m != from {
				walk(m, i, b)
			}
		}
	}
	for _, r := range roots {
		bp.roots = append(bp.roots, len(bp.bags))
		walk(r, -1, -1)
	}
	return bp
}

// forestBags compiles the search program of the join trees holding
// nodes roots for runs over a reduced forest (forestRun).
func (p *Plan) forestBags(head []int, roots ...int) *bagPlan {
	bp := p.joinTreeBags(head, roots...)
	bp.reduced = true
	return bp.compile(nil, -1)
}

// assignAtoms gives bag b every atom whose variables it contains.
func (bp *bagPlan) assignAtoms(b int) {
	node := &bp.bags[b]
	node.atoms = node.atoms[:0]
	for i, vs := range bp.avars {
		ok := true
		for _, v := range vs {
			if !slices.Contains(node.vars, v) {
				ok = false
				break
			}
		}
		if ok {
			node.atoms = append(node.atoms, i)
		}
	}
}

// unbound returns a variable of bag b that neither its separator nor
// one of its atoms binds, or -1.
func (bp *bagPlan) unbound(b int) int {
	node := &bp.bags[b]
	var par []int
	if node.parent >= 0 {
		par = bp.bags[node.parent].vars
	}
vars:
	for _, v := range node.vars {
		if slices.Contains(par, v) {
			continue
		}
		for _, a := range node.atoms {
			if slices.Contains(bp.avars[a], v) {
				continue vars
			}
		}
		return v
	}
	return -1
}

// absorb merges child bag c into bag b: b takes c's variables, its
// children and every atom the union contains. Separators elsewhere do
// not change (a variable shared by a grandchild and b lies in c).
func (bp *bagPlan) absorb(b, c int) {
	nb, nc := &bp.bags[b], &bp.bags[c]
	for _, v := range nc.vars {
		if !slices.Contains(nb.vars, v) {
			nb.vars = append(nb.vars, v)
		}
	}
	slices.Sort(nb.vars)
	nb.children = slices.DeleteFunc(nb.children, func(k int) bool { return k == c })
	for _, k := range nc.children {
		bp.bags[k].parent = b
		nb.children = append(nb.children, k)
	}
	nc.vars, nc.children, nc.parent = nil, nil, -2 // dead
	bp.assignAtoms(b)
}

// compact drops absorbed bags and renumbers the rest in pre-order.
func (bp *bagPlan) compact() {
	var order []int
	var walk func(b int)
	walk = func(b int) {
		order = append(order, b)
		for _, c := range bp.bags[b].children {
			walk(c)
		}
	}
	for _, r := range bp.roots {
		walk(r)
	}
	id := make([]int, len(bp.bags))
	for i, b := range order {
		id[b] = i
	}
	out := make([]bagNode, len(order))
	for i, b := range order {
		out[i] = bp.bags[b]
		if out[i].parent >= 0 {
			out[i].parent = id[out[i].parent]
		}
		for k, c := range out[i].children {
			out[i].children[k] = id[c]
		}
	}
	for k, r := range bp.roots {
		bp.roots[k] = id[r]
	}
	bp.bags = out
}

// compile lays out the search programs of the bag tree: the head
// program and, unless the tree is reduced, every existence bag's
// program. prebound are the
// variables bound before the search starts (the run's holds binds
// them), so an existence bag's outcome also depends on those in its
// subtree; seed is the atom a run reads from its seed view, placed first
// in its bag's program, or -1.
func (bp *bagPlan) compile(prebound []int, seed int) *bagPlan {
	bp.prebound, bp.seed = prebound, seed
	isHead := make([]bool, bp.numVars)
	for _, v := range bp.head {
		isHead[v] = true
	}
	// Separators, memo keys and existence flags, bottom-up over the
	// pre-order.
	below := make([][]int, len(bp.bags)) // head and pre-bound variables in the subtree
	for i := len(bp.bags) - 1; i >= 0; i-- {
		b := &bp.bags[i]
		if b.parent >= 0 {
			b.sep = sharedVars(b.vars, bp.bags[b.parent].vars)
		}
		for _, v := range b.vars {
			if (isHead[v] || slices.Contains(prebound, v)) && !slices.Contains(below[i], v) {
				below[i] = append(below[i], v)
			}
		}
		for _, c := range b.children {
			for _, v := range below[c] {
				if !slices.Contains(below[i], v) {
					below[i] = append(below[i], v)
				}
			}
		}
		b.exist, b.key = true, slices.Clip(b.sep)
		for _, v := range below[i] {
			switch {
			case slices.Contains(b.sep, v):
			case isHead[v]:
				b.exist = false
			default:
				b.key = append(b.key, v)
			}
		}
	}
	bound := make([]bool, bp.numVars)
	setBound := func(vars []int) {
		for _, v := range vars {
			bound[v] = true
		}
	}
	setBound(prebound)
	for _, r := range bp.roots {
		if bp.bags[r].exist {
			bp.pre = append(bp.pre, r)
		}
	}
	var walk func(b int)
	walk = func(b int) {
		pre, steps := bp.program(b, bound, isHead)
		if n := len(bp.steps); n > 0 {
			bp.steps[n-1].checks = append(bp.steps[n-1].checks, pre...)
		} else {
			bp.pre = append(bp.pre, pre...)
		}
		bp.steps = append(bp.steps, steps...)
		for _, c := range bp.bags[b].children {
			if !bp.bags[c].exist {
				walk(c)
			}
		}
	}
	for _, r := range bp.roots {
		if !bp.bags[r].exist {
			walk(r)
		}
	}
	bp.lastHead = -1
	for i, st := range bp.steps {
		for _, v := range st.freeVars {
			if isHead[v] {
				bp.lastHead = i
			}
		}
	}
	for i := range bp.bags {
		b := &bp.bags[i]
		if !b.exist || bp.reduced {
			continue
		}
		clear(bound)
		setBound(prebound)
		setBound(b.sep)
		b.pre, b.steps = bp.program(i, bound, nil)
	}
	return bp
}

// program lays out bag b's local search given the variables bound on
// arrival (bound, updated in place): the seeded atom first, then its
// atoms in greedy order — already-bound atoms as filters first, then
// connected atoms before disconnected ones, then (in the head part)
// atoms binding head variables, then the most bound and fewest free
// columns — each step followed by the existence checks of the children
// whose separators it completes. pre are the checks due on arrival.
// Atoms the parent bag holds were checked there and are skipped.
func (bp *bagPlan) program(b int, bound []bool, isHead []bool) (pre []int, steps []bagStep) {
	node := &bp.bags[b]
	var waiting []int
	for _, c := range node.children {
		if bp.bags[c].exist {
			waiting = append(waiting, c)
		}
	}
	due := func() []int {
		var out []int
		waiting = slices.DeleteFunc(waiting, func(c int) bool {
			for _, v := range bp.bags[c].sep {
				if !bound[v] {
					return false
				}
			}
			out = append(out, c)
			return true
		})
		return out
	}
	pre = due()
	var todo []int
	for _, a := range node.atoms {
		if node.parent < 0 || !slices.Contains(bp.bags[node.parent].atoms, a) {
			todo = append(todo, a)
		}
	}
	score := func(a int) [4]int {
		nb, nf, nh := 0, 0, 0
		for _, v := range bp.avars[a] {
			switch {
			case bound[v]:
				nb++
			case isHead != nil && isHead[v]:
				nf++
				nh++
			default:
				nf++
			}
		}
		s := [4]int{}
		if nf == 0 {
			s[0] = 1
		}
		if nb > 0 {
			s[1] = 1
		}
		s[2] = min(nh, 1)
		s[3] = nb*16 - nf
		return s
	}
	for len(todo) > 0 {
		best := slices.Index(todo, bp.seed)
		if best < 0 {
			best = 0
			for k := 1; k < len(todo); k++ {
				if greater(score(todo[k]), score(todo[best])) {
					best = k
				}
			}
		}
		a := todo[best]
		todo = slices.Delete(todo, best, best+1)
		st := bagStep{id: bp.numSteps, atom: a}
		bp.numSteps++
		nb := 0
		for _, v := range bp.avars[a] {
			if bound[v] {
				nb++
			}
		}
		// One slab holds the four column lists.
		w := len(bp.avars[a])
		cols := make([]int, 2*w)
		st.bound, st.free = cols[:0:nb], cols[nb:nb:w]
		st.boundVars, st.freeVars = cols[w:w:w+nb], cols[w+nb:w+nb:2*w]
		for j, v := range bp.avars[a] {
			if bound[v] {
				st.bound = append(st.bound, j)
				st.boundVars = append(st.boundVars, v)
			} else {
				st.free = append(st.free, j)
				st.freeVars = append(st.freeVars, v)
			}
		}
		for _, v := range st.freeVars {
			bound[v] = true
		}
		st.checks = due()
		steps = append(steps, st)
	}
	if len(waiting) > 0 {
		panic("eval: bag separator never bound")
	}
	return pre, steps
}

// explain renders the bags in pre-order for Plan.Explain.
func (bp *bagPlan) explain() []obs.BagExplain {
	out := make([]obs.BagExplain, len(bp.bags))
	for i, b := range bp.bags {
		e := obs.BagExplain{ID: i, Parent: b.parent, Exists: b.exist}
		if b.parent >= 0 {
			e.Depth = out[b.parent].Depth + 1
		}
		for _, v := range b.vars {
			e.Vars = append(e.Vars, fmt.Sprintf("v%d", v))
		}
		for _, a := range b.atoms {
			e.Atoms = append(e.Atoms, atomString(bp.atoms[a]))
		}
		out[i] = e
	}
	return out
}

// greater orders step scores lexicographically.
func greater(a, b [4]int) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] > b[k]
		}
	}
	return false
}

// --- the per-call search -----------------------------------------------

// bagProbe is one step's index resolution for the current call: an
// index over some of the bound columns (keyVars aligned with its
// columns) plus the bound columns it leaves to a filter. A nil index
// with no bound columns is a scan. live is the atom's liveness bitmap,
// nil when every row is live.
type bagProbe struct {
	ready    bool
	ix       *relstr.Index
	keyVars  []int
	filtCols []int
	filtVars []int
	live     []uint64
}

// bagMemo records an existence bag's outcomes per memo key values.
type bagMemo struct {
	keys flatSet
	hit  []bool
}

// opStats are the per-call index counters a search accumulates; Plans
// fold them into their atomic totals when the call finishes.
type opStats struct {
	builds uint64 // hash indexes built over data
	probes uint64 // rows driven through an index probe
}

// bagRun is the pooled per-call state of one bag search.
type bagRun struct {
	bp     *bagPlan
	sn     *relstr.Snapshot
	ctx    context.Context
	polls  int
	budget *int // rows the search may still visit; nil: unlimited
	err    error
	stop   bool
	views  []*relstr.View // per atom, resolved on first use
	live   [][]uint64     // per atom, its row liveness bitmap; nil: every row
	probes []bagProbe
	bind   []int   // variable → value on the current search path
	keys   [][]int // existence bag → its memo key values
	memo   []bagMemo
	seen   flatSet // head tuples found
	tuple  []int
	emit   func([]int) bool
	stats  opStats
}

// bagRuns holds released runs. Kept across GCs, they make the
// allocations of a call independent of GC timing; a released run first
// drops every buffer above maxPooled elements (2 MiB of int keys), so
// the pool never pins a large answer set.
var bagRuns = make(freeList[bagRun], runtime.GOMAXPROCS(0))

const maxPooled = 1 << 18

// resized returns s with length n, zeroed, reusing its capacity.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (bp *bagPlan) newRun(ctx context.Context, sn *relstr.Snapshot, emit func([]int) bool) *bagRun {
	r := bagRuns.get()
	r.start(bp, ctx, sn, emit)
	return r
}

// start readies r for a run of bp, reusing its buffers.
func (r *bagRun) start(bp *bagPlan, ctx context.Context, sn *relstr.Snapshot, emit func([]int) bool) {
	r.bp, r.sn, r.ctx, r.emit = bp, sn, ctx, emit
	r.polls, r.err, r.stop, r.stats = 0, nil, false, opStats{}
	r.views = resized(r.views, len(bp.atoms))
	r.live = resized(r.live, len(bp.atoms))
	if cap(r.probes) < bp.numSteps {
		r.probes = make([]bagProbe, bp.numSteps)
	}
	r.probes = r.probes[:bp.numSteps] // released runs leave every probe unresolved
	r.bind = resized(r.bind, bp.numVars)
	r.tuple = resized(r.tuple, len(bp.head))
	r.seen.reset(len(bp.head))
	if len(bp.head) != 1 {
		r.seen.reserve(int(bp.found.Load()))
	} else if sn != nil { // a bitset over the data's size (flatSet.limit)
		r.seen.limit = bitLimit(sn.NumFacts(), 0)
	}
	if bp.reduced {
		return // no existence check runs
	}
	// The two grow apart: append rounds each capacity to its own size
	// class.
	if cap(r.memo) < len(bp.bags) {
		r.memo = append(r.memo[:cap(r.memo)], make([]bagMemo, len(bp.bags)-cap(r.memo))...)
	}
	if cap(r.keys) < len(bp.bags) {
		r.keys = append(r.keys[:cap(r.keys)], make([][]int, len(bp.bags)-cap(r.keys))...)
	}
	r.memo, r.keys = r.memo[:len(bp.bags)], r.keys[:len(bp.bags)]
	for i, b := range bp.bags {
		if b.exist {
			r.memo[i].keys.reset(len(b.key))
			r.memo[i].hit = r.memo[i].hit[:0]
			r.keys[i] = resized(r.keys[i], len(b.key))
		}
	}
}

func (r *bagRun) release() {
	if !r.stop {
		r.bp.found.Store(int64(r.seen.n))
	}
	r.drop()
	r.seen.trim()
	for i := range r.memo {
		r.memo[i].keys.trim()
	}
	bagRuns.put(r)
}

// drop clears r's references to the call's data, keeping its buffers.
func (r *bagRun) drop() {
	r.sn, r.ctx, r.emit, r.budget, r.err = nil, nil, nil, nil, nil
	clear(r.views)
	clear(r.live)
	for i := range r.probes {
		r.probes[i].ready, r.probes[i].ix, r.probes[i].live = false, nil, nil
	}
}

// run searches the whole program, reporting every distinct head tuple
// to emit until it returns false.
func (r *bagRun) run() {
	if r.poll() && r.checks(r.bp.pre) {
		r.head(0)
	}
}

// holds reports whether some assignment extends vals, the values of
// the pre-bound variables in order. The program has no head, so it is
// the root bags' existence checks; their memo survives between calls,
// so a later call reuses every outcome its key values share.
func (r *bagRun) holds(vals []int) bool {
	for k, v := range r.bp.prebound {
		r.bind[v] = vals[k]
	}
	return r.poll() && r.checks(r.bp.pre)
}

// poll checks the context every 256 calls; a cancellation stops the
// search.
func (r *bagRun) poll() bool {
	if r.polls++; r.polls&255 == 1 {
		if err := cqerr.Check(r.ctx); err != nil {
			r.err, r.stop = err, true
		}
	}
	return !r.stop
}

// visit charges one visited row to the budget, if any — an exhausted
// budget stops the search with errIncrBudget — and polls.
func (r *bagRun) visit() bool {
	if r.budget != nil {
		if *r.budget--; *r.budget < 0 {
			r.err, r.stop = errIncrBudget, true
			return false
		}
	}
	return r.poll()
}

// probe resolves step st's index for this call: the widest index the
// view already holds over the bound columns, else one built on the
// first bound column — never more than one new index per (view,
// column), so the search adds little to a snapshot's cache.
func (r *bagRun) probe(st *bagStep) *bagProbe {
	sp := &r.probes[st.id]
	if sp.ready {
		return sp
	}
	sp.ready, sp.live = true, r.live[st.atom]
	v := r.views[st.atom]
	if v == nil {
		v = atomView(r.sn, r.bp.atoms[st.atom])
		r.views[st.atom] = v
	}
	if sp.live == nil {
		sp.live = v.Live() // no forest: the view's own liveness
	}
	if len(st.bound) == 0 {
		return sp
	}
	full := 1<<len(st.bound) - 1
	best := 0
	var cols []int
	for mask := full; mask > 0; mask-- {
		if bits.OnesCount(uint(mask)) <= bits.OnesCount(uint(best)) {
			continue
		}
		cols = cols[:0]
		for k, c := range st.bound {
			if mask&(1<<k) != 0 {
				cols = append(cols, c)
			}
		}
		if ix := v.Cached(cols); ix != nil {
			sp.ix, best = ix, mask
		}
	}
	if sp.ix == nil {
		ix, built := v.Index(st.bound[:1])
		if built {
			r.stats.builds++
		}
		sp.ix, best = ix, 1
	}
	sp.keyVars, sp.filtCols, sp.filtVars = sp.keyVars[:0], sp.filtCols[:0], sp.filtVars[:0]
	for k, c := range st.bound {
		if best&(1<<k) != 0 {
			sp.keyVars = append(sp.keyVars, st.boundVars[k])
		} else {
			sp.filtCols = append(sp.filtCols, c)
			sp.filtVars = append(sp.filtVars, st.boundVars[k])
		}
	}
	return sp
}

// first returns the first live row id of step st's view agreeing with
// the bound values, or -1; next continues from id. A scan has no bound
// columns, so it tests liveness only.
func (r *bagRun) first(sp *bagProbe, rows [][]int) int32 {
	if sp.ix == nil {
		return sp.scan(0, len(rows))
	}
	r.stats.probes++
	id := sp.ix.First(r.bind, sp.keyVars)
	for id >= 0 && !r.keep(sp, rows, id) {
		id = sp.ix.Next(id, r.bind, sp.keyVars)
	}
	return id
}

func (r *bagRun) next(sp *bagProbe, rows [][]int, id int32) int32 {
	if sp.ix == nil {
		return sp.scan(id+1, len(rows))
	}
	for id = sp.ix.Next(id, r.bind, sp.keyVars); id >= 0 && !r.keep(sp, rows, id); {
		id = sp.ix.Next(id, r.bind, sp.keyVars)
	}
	return id
}

// scan returns the first live row id from id on among n rows, or -1.
func (sp *bagProbe) scan(id int32, n int) int32 {
	if sp.live == nil {
		if int(id) < n {
			return id
		}
		return -1
	}
	for w := int(id >> 6); w < len(sp.live); w++ {
		word := sp.live[w]
		if w == int(id>>6) {
			word &= ^uint64(0) << (uint(id) & 63)
		}
		if word != 0 {
			return int32(w<<6 | bits.TrailingZeros64(word))
		}
	}
	return -1
}

// keep reports whether row id is live and agrees with the bound values
// the index leaves to a filter.
func (r *bagRun) keep(sp *bagProbe, rows [][]int, id int32) bool {
	if sp.live != nil && sp.live[id>>6]&(1<<(uint(id)&63)) == 0 {
		return false
	}
	row := rows[id]
	for k, c := range sp.filtCols {
		if row[c] != r.bind[sp.filtVars[k]] {
			return false
		}
	}
	return true
}

// bindRow binds step st's free variables from row.
func (r *bagRun) bindRow(st *bagStep, row []int) {
	for k, c := range st.free {
		r.bind[st.freeVars[k]] = row[c]
	}
}

// checks runs existence checks in order, stopping at the first miss.
// A run over a reduced forest skips them: they all hold.
func (r *bagRun) checks(bags []int) bool {
	if r.bp.reduced {
		return true
	}
	for _, c := range bags {
		if !r.exists(c) {
			return false
		}
	}
	return true
}

// exists reports whether existence bag c's subtree extends the bound
// values, memoised per memo key values. Outcomes of a stopped search
// are not recorded.
func (r *bagRun) exists(c int) bool {
	b := &r.bp.bags[c]
	key := r.keys[c] // c's subtree never re-enters c, so the buffer survives the search
	for k, v := range b.key {
		key[k] = r.bind[v]
	}
	m := &r.memo[c]
	if id := m.keys.find(key); id >= 0 {
		return m.hit[id]
	}
	ok := r.checks(b.pre) && r.existStep(b, 0)
	if r.stop {
		return false
	}
	m.keys.insert(key)
	m.hit = append(m.hit, ok)
	return ok
}

// existStep searches bag b's program from step i for one witness.
func (r *bagRun) existStep(b *bagNode, i int) bool {
	if i == len(b.steps) {
		return true
	}
	st := &b.steps[i]
	sp := r.probe(st)
	rows := r.views[st.atom].Rows()
	for id := r.first(sp, rows); id >= 0; id = r.next(sp, rows, id) {
		if !r.visit() {
			return false
		}
		r.bindRow(st, rows[id])
		if r.checks(st.checks) && r.existStep(b, i+1) {
			return true
		}
		if r.stop {
			return false
		}
	}
	return false
}

// head runs head step i and returns the step whose loop continues: i-1
// once the step is exhausted, the last head-binding step after an
// answer (the cut), or -2 when the search stopped.
func (r *bagRun) head(i int) int {
	bp := r.bp
	if i == len(bp.steps) {
		// Past lastHead the tuple is fixed and was checked absent there,
		// so it enters the set without a second probe — only now, with
		// its witness found.
		if bp.lastHead < 0 {
			r.fillTuple()
			if !r.seen.add(r.tuple) {
				return bp.lastHead
			}
		} else {
			r.seen.put(r.tuple)
		}
		if !r.emit(r.tuple) {
			r.stop = true
		}
		if r.stop {
			return -2
		}
		return bp.lastHead
	}
	st := &bp.steps[i]
	sp := r.probe(st)
	rows := r.views[st.atom].Rows()
	for id := r.first(sp, rows); id >= 0; id = r.next(sp, rows, id) {
		if !r.visit() {
			return -2
		}
		r.bindRow(st, rows[id])
		if i == bp.lastHead {
			r.fillTuple()
			if r.seen.has(r.tuple) {
				continue // this head tuple already has its witness
			}
		}
		if !r.checks(st.checks) {
			if r.stop {
				return -2
			}
			continue
		}
		if c := r.head(i + 1); c < i {
			return c
		}
	}
	return i - 1
}

func (r *bagRun) fillTuple() {
	for k, v := range r.bp.head {
		r.tuple[k] = r.bind[v]
	}
}

// --- plan entry points -------------------------------------------------

// forestRun starts a run of bp, a reduced program (forestBags), over
// the live rows of f, a forest of the plan's atoms reduced by the
// bottom-up pass: each atom reads its forest node's view and liveness
// bitmap. Every live row extends to an assignment of its subtree and a
// bag is reached only through its parent's live binding, so the search
// never meets a dead end and runs no existence check. sn, the snapshot
// f was built from, only sizes a one-column head's seen set.
func (bp *bagPlan) forestRun(ctx context.Context, sn *relstr.Snapshot, f *forest, emit func([]int) bool) *bagRun {
	r := bp.newRun(ctx, sn, emit)
	r.readForest(f)
	return r
}

// readForest points every atom of r at its node of f: the node's view
// and liveness bitmap.
func (r *bagRun) readForest(f *forest) {
	for i := range f.nodes {
		r.views[i], r.live[i] = f.nodes[i].view, f.nodes[i].words
	}
}

// finish folds a run's index counters into the plan totals, releases
// the run and returns the error that stopped it, if any.
func (p *Plan) finish(r *bagRun) error {
	err := r.err
	p.stats.builds.Add(r.stats.builds)
	p.stats.probes.Add(r.stats.probes)
	r.release()
	return err
}

// --- flat key sets -------------------------------------------------------

// flatSet is an insertion-ordered hash set of fixed-width int keys
// stored back to back in one slab (key id k occupies keys[k*w:(k+1)*w]),
// so a set of n keys costs a handful of allocations rather than n. A
// one-column set given a limit keeps its keys in a bitset instead
// (bits, bit v set ⇔ v present) while they lie in [0, limit); the
// first key outside moves them into the table (limit 0).
type flatSet struct {
	w     int
	n     int
	keys  []int
	head  []int32 // bucket → first key id +1 (0 = empty)
	next  []int32 // key id → next key id +1 in the same bucket
	mask  uint64
	limit int
	bits  []uint64
}

// trim drops the set's buffers when they exceed maxPooled elements, so
// a pooled owner does not pin them.
func (s *flatSet) trim() {
	if cap(s.keys) > maxPooled || cap(s.head) > maxPooled || cap(s.bits) > maxPooled {
		*s = flatSet{}
	}
}

// reserve readies an empty set for n keys: each buffer is allocated at
// most once, and no rehash runs before the n-th key.
func (s *flatSet) reserve(n int) {
	s.keys, s.next = slices.Grow(s.keys, n*s.w), slices.Grow(s.next, n)
	if size := max(16, 1<<bits.Len(uint(n*4/3))); len(s.head) < size {
		s.head, s.mask = resized(s.head, size), uint64(size-1)
	}
}

// reset empties the set for keys of width w, keeping its capacity. A
// pooled set may carry a large table from an earlier call, so a sparse
// one clears only the buckets its keys used; keys held in bits (limit
// > 0) left the table clear.
func (s *flatSet) reset(w int) {
	if s.limit == 0 && s.n*8 < len(s.head) {
		for k := 0; k < s.n; k++ {
			s.head[hashKey(s.keys[k*s.w:(k+1)*s.w])&s.mask] = 0
		}
	} else if s.limit == 0 {
		clear(s.head)
	}
	s.w, s.n, s.limit = w, 0, 0
	s.keys = s.keys[:0]
	s.next = s.next[:0]
	s.bits = s.bits[:0]
}

// has reports whether key is in the set.
func (s *flatSet) has(key []int) bool {
	if s.limit > 0 {
		v := uint(key[0]) // a negative key wraps to a huge uint and misses
		return v < uint(len(s.bits))<<6 && s.bits[v>>6]&(1<<(v&63)) != 0
	}
	return s.find(key) >= 0
}

// ascending writes the keys of a one-column set whose bitset holds
// them (limit > 0) into out, len s.n, in ascending order.
func (s *flatSet) ascending(out []int) {
	k := 0
	for w, word := range s.bits {
		for ; word != 0; word &= word - 1 {
			out[k] = w<<6 | bits.TrailingZeros64(word)
			k++
		}
	}
}

func hashKey(key []int) uint64 {
	h := uint64(len(key)) + 0x9E3779B97F4A7C15
	for _, v := range key {
		h ^= uint64(v)
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// find returns the id of key, or -1.
func (s *flatSet) find(key []int) int32 {
	if s.n == 0 {
		return -1
	}
	for id := s.head[hashKey(key)&s.mask]; id != 0; id = s.next[id-1] {
		off := int(id-1) * s.w
		if slices.Equal(s.keys[off:off+s.w], key) {
			return id - 1
		}
	}
	return -1
}

// add inserts key if absent and reports whether it is new.
func (s *flatSet) add(key []int) bool {
	if s.has(key) {
		return false
	}
	s.put(key)
	return true
}

// put inserts a key known to be absent.
func (s *flatSet) put(key []int) {
	if s.limit > 0 && uint(key[0]) >= uint(s.limit) { // move the bitset into the table
		vals := make([]int, s.n)
		s.ascending(vals)
		s.n, s.limit = 0, 0
		for k := range vals {
			s.insert(vals[k : k+1])
		}
	}
	if s.limit == 0 {
		s.insert(key)
		return
	}
	if v := key[0]; v>>6 >= len(s.bits) {
		s.bits = grow(s.bits, v>>6+1)
	}
	s.bits[key[0]>>6] |= 1 << uint(key[0]&63)
	s.n++
}

// insert appends a key known to be absent and returns its id.
func (s *flatSet) insert(key []int) int32 {
	if s.n >= len(s.head)*3/4 {
		size := max(16, 2*len(s.head))
		if cap(s.head) >= size {
			s.head = s.head[:size]
			clear(s.head)
		} else {
			s.head = make([]int32, size)
		}
		s.mask = uint64(size - 1)
		for k := 0; k < s.n; k++ {
			b := hashKey(s.keys[k*s.w:(k+1)*s.w]) & s.mask
			s.next[k] = s.head[b]
			s.head[b] = int32(k + 1)
		}
	}
	s.keys = append(s.keys, key...)
	b := hashKey(key) & s.mask
	s.next = append(s.next, s.head[b])
	s.n++
	s.head[b] = int32(s.n)
	return int32(s.n - 1)
}
