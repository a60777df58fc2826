package eval

// Incremental view maintenance for prepared plans: an IncrState
// persists the materialised result of one (plan, snapshot) pair —
// per-tree contribution relations plus the composed answer set — and
// propagates snapshot deltas through the join forest in work
// proportional to the change, emitting an exact answer-set diff
// instead of recomputing.
//
// The algorithm factors the answer set through the forest: trees of
// the join forest share no variables, so the answers are the head
// projection of the cross product over trees of each tree's
// *contribution* — the projection of the tree's satisfying assignments
// onto its root's kept variables (exactly the free variables occurring
// in the tree). A delta confined to one tree therefore only moves that
// tree's contribution; the answer diff is the changed contribution
// rows crossed with the other trees' unchanged contributions.
//
// Within the touched tree the work is delta-sized. For insertions, any
// new contribution row has a witness using an inserted tuple at some
// node, so for each seeded node the tree's rows are *restricted* by a
// breadth-first walk along tree edges — a node's restricted rows are
// the full view rows joinable with the neighbour's restricted rows —
// and the ordinary semijoin passes plus the solve join run on that
// mini-forest. The restriction is closed under witnesses through a
// seed row (adjacent rows of any such assignment join pairwise along
// tree edges), so the mini-forest yields exactly the candidate
// contributions. For deletions the same restricted evaluation runs on
// the *old* snapshot seeded by the deleted rows, producing the old
// contributions that had a witness through a deleted tuple; each
// candidate is then re-checked on the new snapshot by a first-hit
// search for one witness: top-down from a node holding kept
// variables, each node's view is probed through its persistent index
// on the variables already bound (the candidate's kept values and the
// parent row's shared ones), and a chosen row's child subtrees are
// checked independently — in a join tree they share variables only
// through that row. Outcomes are memoised per (node, bound key), so a
// candidate without a witness visits each matching row at most once.
//
// Everything is budgeted — every row the restriction walks keep and
// every row the membership search visits is charged: when the budget
// runs out, the delta spans several trees or a Boolean (no kept
// variables) tree, or the plan is a bag plan, Apply falls back to a full
// re-evaluation and reports it — the diff is still exact, computed as
// the sorted set difference against the previous answers. The fallback
// and incremental counters surface through IndexStats and Explain.

import (
	"context"
	"errors"
	"slices"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// DefaultIncrBudget caps the work of one Apply — seeds, restricted
// rows and rows visited by membership searches — before it falls back
// to a full re-evaluation.
const DefaultIncrBudget = 8192

// errIncrBudget aborts an incremental attempt; Apply catches it and
// falls back.
var errIncrBudget = errors.New("eval: incremental budget exceeded")

// IncrState is the persisted reduced state of one plan bound to one
// snapshot version: the per-tree contribution relations and the
// composed, sorted answer set. Not safe for concurrent use; callers
// serialise Apply (the root package's IncrementalEval does).
type IncrState struct {
	p      *Plan
	par    int
	budget int

	version uint64
	answers Answers // sorted, deduplicated; rebuilt (never mutated) per Apply

	// Yannakakis-mode factored state (nil for bag plans, which
	// always fall back):
	contribs [][][]int // per tree, sorted rows over treeVars[t]
	treeVars [][]int   // kept (free) variables per tree; empty = Boolean tree
	treeOf   []int     // node → tree index
	tnodes   [][]int   // tree → its nodes (preorder)
	adj      [][]int   // node → tree neighbours (children + parent)
	nodeVars [][]int   // node → distinct variables
	relNodes map[string][]int

	// Membership search program (see member): each tree is searched
	// from the node holding the most kept variables, oriented over adj.
	searchRoot []int   // tree → search root
	searchKids [][]int // node → children in the search orientation
	keyCols    [][]int // node → columns bound on arrival: kept or shared with the search parent
	keyVars    [][]int // node → the variables at keyCols
	memoVars   [][]int // node → keyVars plus the other kept variables of its search subtree
	numVars    int     // variable ids are below numVars
}

// IncrDiff is the exact answer-set change of one Apply: the tuples
// that appeared and the tuples that vanished, each sorted and
// deduplicated.
type IncrDiff struct {
	Added   Answers
	Removed Answers
	// Fallback reports that the delta was not propagated
	// incrementally — the state recomputed from scratch (the diff is
	// still exact). Reason says why.
	Fallback bool
	Reason   string
}

// IncrSupported reports whether the plan can maintain its answers
// incrementally (acyclic plans only; bag plans always fall back).
func (p *Plan) IncrSupported() bool { return p.mode == PlanYannakakis }

// NewIncrState evaluates the plan on sn and captures the reduced state
// for later delta maintenance. parallel is the worker budget used for
// this initial evaluation and for fallback re-evaluations.
func (p *Plan) NewIncrState(ctx context.Context, sn *relstr.Snapshot, parallel int) (*IncrState, error) {
	s := &IncrState{p: p, par: normPar(parallel), budget: DefaultIncrBudget}
	if p.mode == PlanYannakakis {
		s.initMaps()
	}
	if err := s.recompute(ctx, sn); err != nil {
		return nil, err
	}
	return s, nil
}

// SetBudget overrides the per-Apply work budget: the seeds and
// restricted rows of the restriction walks plus the rows visited by
// the membership searches (values below one keep the default). Lower
// budgets force earlier fallbacks.
func (s *IncrState) SetBudget(n int) {
	if n > 0 {
		s.budget = n
	}
}

// Version returns the snapshot version the state currently reflects.
func (s *IncrState) Version() uint64 { return s.version }

// Answers returns the maintained answer set, sorted and deduplicated.
// The slice is shared with the state: callers must not modify it. It
// stays valid across Apply calls (updates build fresh slices).
func (s *IncrState) Answers() Answers { return s.answers }

// initMaps precomputes the static per-node and per-tree lookup tables.
func (s *IncrState) initMaps() {
	p := s.p
	n := len(p.atoms)
	s.treeOf = make([]int, n)
	s.adj = make([][]int, n)
	s.nodeVars = make([][]int, n)
	s.relNodes = map[string][]int{}
	for i, a := range p.atoms {
		s.nodeVars[i] = a.distinctVars()
		s.relNodes[a.rel] = append(s.relNodes[a.rel], i)
		s.adj[i] = append(s.adj[i], p.sched.children[i]...)
		if par := p.jt.Parent[i]; par >= 0 {
			s.adj[i] = append(s.adj[i], par)
		}
	}
	s.treeVars = make([][]int, len(p.sched.roots))
	s.tnodes = make([][]int, len(p.sched.roots))
	for ti, r := range p.sched.roots {
		s.treeVars[ti] = p.sched.nodes[r].vars
		var walk func(i int)
		walk = func(i int) {
			s.treeOf[i] = ti
			s.tnodes[ti] = append(s.tnodes[ti], i)
			for _, c := range p.sched.children[i] {
				walk(c)
			}
		}
		walk(r)
	}
	s.searchRoot = make([]int, len(p.sched.roots))
	s.searchKids = make([][]int, n)
	s.keyCols = make([][]int, n)
	s.keyVars = make([][]int, n)
	s.memoVars = make([][]int, n)
	for ti := range p.sched.roots {
		best := -1
		for _, i := range s.tnodes[ti] {
			k := 0
			for _, v := range s.nodeVars[i] {
				if slices.Contains(s.treeVars[ti], v) {
					k++
				}
			}
			if k > best {
				s.searchRoot[ti], best = i, k
			}
		}
		// orient lays out node i's search program under search parent
		// par and returns the kept variables of i's search subtree.
		var orient func(i, par int) []int
		orient = func(i, par int) []int {
			var kept []int
			for j, v := range s.nodeVars[i] {
				isKept := slices.Contains(s.treeVars[ti], v)
				if isKept {
					kept = append(kept, v)
				}
				if isKept || par >= 0 && slices.Contains(s.nodeVars[par], v) {
					s.keyCols[i] = append(s.keyCols[i], j)
					s.keyVars[i] = append(s.keyVars[i], v)
				}
				s.numVars = max(s.numVars, v+1)
			}
			for _, m := range s.adj[i] {
				if m != par {
					s.searchKids[i] = append(s.searchKids[i], m)
					for _, v := range orient(m, i) {
						if !slices.Contains(kept, v) {
							kept = append(kept, v)
						}
					}
				}
			}
			s.memoVars[i] = slices.Clone(s.keyVars[i])
			for _, v := range kept {
				if !slices.Contains(s.memoVars[i], v) {
					s.memoVars[i] = append(s.memoVars[i], v)
				}
			}
			return kept
		}
		orient(s.searchRoot[ti], -1)
	}
}

// recompute rebuilds the full state — contributions and answers — from
// a fresh evaluation on sn. State fields are only assigned on success.
func (s *IncrState) recompute(ctx context.Context, sn *relstr.Snapshot) error {
	p := s.p
	if p.mode != PlanYannakakis {
		ans, err := p.evalBags(ctx, sn)
		if err != nil {
			return err
		}
		s.answers = ans
		s.version = sn.Version()
		return nil
	}
	sc := getScratch()
	defer p.flush(sc)
	f := p.newForest(sn, sc, s.par)
	defer f.release()
	if err := f.runPasses(ctx, p.sched); err != nil {
		return err
	}
	contribs := make([][][]int, len(p.sched.roots))
	for ti, r := range p.sched.roots {
		if len(s.treeVars[ti]) == 0 {
			// Boolean tree: after both passes a tree is empty at the
			// root iff it is empty everywhere; its contribution is the
			// unit relation or nothing.
			if f.nodes[r].live > 0 {
				contribs[ti] = [][]int{{}}
			} else {
				contribs[ti] = [][]int{}
			}
			continue
		}
		tr, err := f.treeRel(ctx, p.sched, r)
		if err != nil {
			return err
		}
		rows := make([][]int, len(tr.rows))
		for k, row := range tr.rows {
			rows[k] = append([]int{}, row...)
		}
		sortRows(rows)
		contribs[ti] = rows
	}
	s.contribs = contribs
	s.answers = s.compose(-1, nil)
	s.version = sn.Version()
	return nil
}

// fallbackTo recomputes the state on sn and returns the exact diff as
// the sorted set difference against the previous answers.
func (s *IncrState) fallbackTo(ctx context.Context, sn *relstr.Snapshot, reason string) (*IncrDiff, error) {
	old := s.answers
	if err := s.recompute(ctx, sn); err != nil {
		return nil, err
	}
	added, removed := diffAnswers(old, s.answers)
	s.p.stats.incrFallbacks.Add(1)
	return &IncrDiff{Added: added, Removed: removed, Fallback: true, Reason: reason}, nil
}

// Apply advances the state from oldSn (which must be the version the
// state reflects) to newSn = oldSn.Update(d), returning the exact
// answer diff. A nil delta (full replacement) or a version mismatch
// (missed intermediate updates) resynchronises via a full
// re-evaluation; so do bag plans, deltas spanning several trees or a
// Boolean tree, and propagations past the budget — all reported as
// Fallback with a Reason and counted in IndexStats.IncrFallbacks.
func (s *IncrState) Apply(ctx context.Context, d *relstr.Delta, oldSn, newSn *relstr.Snapshot) (*IncrDiff, error) {
	if newSn == nil {
		return nil, errors.New("eval: Apply requires the updated snapshot")
	}
	diff, reason, err := s.advance(ctx, d, oldSn, newSn)
	if err != nil {
		return nil, err
	}
	if reason != "" {
		return s.fallbackTo(ctx, newSn, reason)
	}
	return diff, nil
}

// advance is Apply's incremental attempt. When the delta cannot be
// propagated it returns the fallback reason and leaves the state
// untouched.
func (s *IncrState) advance(ctx context.Context, d *relstr.Delta, oldSn, newSn *relstr.Snapshot) (*IncrDiff, string, error) {
	switch {
	case s.p.mode != PlanYannakakis:
		return nil, "plan is not incrementally maintainable", nil
	case d == nil || oldSn == nil:
		return nil, "full replacement", nil
	case oldSn.Version() != s.version:
		return nil, "state behind the snapshot chain", nil
	case newSn.Version() == s.version:
		return &IncrDiff{}, "", nil // empty delta: Update returned the same snapshot
	case d.NumChanges() > s.budget:
		return nil, "delta larger than budget", nil
	}
	eff := s.effective(d, oldSn, newSn)
	if len(eff) == 0 {
		// Every change is a no-op or touches relations the query never
		// reads: the reduced state stays valid verbatim.
		s.version = newSn.Version()
		s.p.stats.incrEvals.Add(1)
		return &IncrDiff{}, "", nil
	}
	ti := -1
	for _, e := range eff {
		for _, n := range s.relNodes[e.rel] {
			switch t := s.treeOf[n]; {
			case ti == -1:
				ti = t
			case ti != t:
				return nil, "delta spans multiple join trees", nil
			}
		}
	}
	if len(s.treeVars[ti]) == 0 {
		return nil, "delta touches a Boolean tree", nil
	}
	diff, err := s.applyTree(ctx, ti, eff, oldSn, newSn)
	if err == errIncrBudget {
		return nil, "incremental work larger than budget", nil
	}
	if err != nil {
		return nil, "", err
	}
	s.p.stats.incrEvals.Add(1)
	return diff, "", nil
}

// effChange is one read relation's effective changes: tuples actually
// entering the snapshot and tuples actually leaving it, deduplicated
// (insert-existing, delete-absent and insert+delete-same-fact ops all
// cancel out here).
type effChange struct {
	rel      string
	ins, del [][]int
}

func (s *IncrState) effective(d *relstr.Delta, oldSn, newSn *relstr.Snapshot) []effChange {
	oldS, newS := oldSn.Structure(), newSn.Structure()
	var out []effChange
	for _, name := range d.Touched() {
		if len(s.relNodes[name]) == 0 {
			continue
		}
		var ins, del relstr.TupleSet
		for _, t := range d.Inserts(name) {
			if !oldS.Has(name, t...) && newS.Has(name, t...) {
				ins.AddCopy(t)
			}
		}
		for _, t := range d.Deletes(name) {
			if oldS.Has(name, t...) && !newS.Has(name, t...) {
				del.AddCopy(t)
			}
		}
		if ins.Len()+del.Len() > 0 {
			out = append(out, effChange{rel: name, ins: tuplesToRows(ins.Rows()), del: tuplesToRows(del.Rows())})
		}
	}
	return out
}

// applyTree propagates the effective changes — all confined to tree ti
// — and updates the state. State mutation happens only after every
// candidate and membership check succeeded, so a budget abort leaves
// the state untouched for the fallback.
func (s *IncrState) applyTree(ctx context.Context, ti int, eff []effChange, oldSn, newSn *relstr.Snapshot) (*IncrDiff, error) {
	p := s.p
	budget := s.budget
	sc := getScratch()
	defer p.flushIncr(sc)
	var addSeen, remSeen relstr.TupleSet
	for _, e := range eff {
		for _, n := range s.relNodes[e.rel] {
			if seeds := s.seedRows(n, e.ins); len(seeds) > 0 {
				rows, err := s.treeCandidates(ctx, sc, ti, n, seeds, newSn, &budget)
				if err != nil {
					return nil, err
				}
				for _, r := range rows {
					addSeen.AddCopy(r)
				}
			}
			if seeds := s.seedRows(n, e.del); len(seeds) > 0 {
				rows, err := s.treeCandidates(ctx, sc, ti, n, seeds, oldSn, &budget)
				if err != nil {
					return nil, err
				}
				for _, r := range rows {
					remSeen.AddCopy(r)
				}
			}
		}
	}
	// Insert candidates already contributed before the delta are not
	// new; delete candidates still derivable on the new snapshot stay.
	var added [][]int
	for _, c := range tuplesToRows(addSeen.Rows()) {
		if !containsRow(s.contribs[ti], c) {
			added = append(added, c)
		}
	}
	var removed [][]int
	if remSeen.Len() > 0 {
		ms := s.newMemberSearch(newSn, sc, &budget)
		for _, c := range tuplesToRows(remSeen.Rows()) {
			ok, err := s.member(ctx, ms, ti, c)
			if err != nil {
				return nil, err
			}
			if !ok {
				removed = append(removed, c)
			}
		}
	}
	sortRows(added)
	sortRows(removed)
	addedAns := s.compose(ti, added)
	removedAns := s.compose(ti, removed)
	s.contribs[ti] = mergeRows(s.contribs[ti], added, removed)
	s.answers = mergeAnswers(s.answers, addedAns, removedAns)
	s.version = newSn.Version()
	return &IncrDiff{Added: addedAns, Removed: removedAns}, nil
}

// seedRows projects the delta tuples of node n's relation onto the
// node's view shape: tuples violating the atom's repetition pattern
// (or arity) realise no view row and drop out.
func (s *IncrState) seedRows(n int, tuples [][]int) [][]int {
	a := s.p.atoms[n]
	pat := a.pat
	var out [][]int
tuples:
	for _, t := range tuples {
		if len(t) != len(a.args) {
			continue
		}
		for i, pi := range pat {
			if t[i] != t[pi] {
				continue tuples
			}
		}
		row := make([]int, 0, len(s.nodeVars[n]))
		for i, pi := range pat {
			if pi == i {
				row = append(row, t[i])
			}
		}
		out = append(out, row)
	}
	return out
}

// restrict computes the seed-reachable row restriction of tree ti on
// sn: a breadth-first walk from seedNode along tree edges, restricting
// each node to the view rows joinable with the neighbour's restricted
// rows (probed through the snapshot's persistent indexes). The walk
// covers the whole tree (trees are connected), and the restriction is
// closed under assignments through a seed row.
func (s *IncrState) restrict(sn *relstr.Snapshot, seedNode int, seeds [][]int, sc *scratch, budget *int) (map[int][][]int, error) {
	restricted := map[int][][]int{seedNode: seeds}
	*budget -= len(seeds)
	if *budget < 0 {
		return nil, errIncrBudget
	}
	for queue := []int{seedNode}; len(queue) > 0; queue = queue[1:] {
		i := queue[0]
		for _, m := range s.adj[i] {
			if _, ok := restricted[m]; ok {
				continue
			}
			iCols, mCols := sharedCols(s.nodeVars[i], s.nodeVars[m])
			v := atomView(sn, s.p.atoms[m])
			var rows [][]int
			if len(mCols) == 0 {
				rows = v.Rows() // no shared variables: every row joins
			} else {
				ix, _ := v.Index(mCols)
				sc.stats.probes += uint64(len(restricted[i]))
				seen := map[int32]bool{}
				for _, r := range restricted[i] {
					for id := ix.First(r, iCols); id >= 0; id = ix.Next(id, r, iCols) {
						if !seen[id] {
							seen[id] = true
							rows = append(rows, v.Rows()[id])
						}
					}
				}
			}
			*budget -= len(rows)
			if *budget < 0 {
				return nil, errIncrBudget
			}
			restricted[m] = rows
			queue = append(queue, m)
		}
	}
	return restricted, nil
}

// miniForest wraps restricted row sets as a serial forest the ordinary
// pass/solve machinery runs on (nodes outside the restriction stay
// zero-valued and are never visited).
func (s *IncrState) miniForest(restricted map[int][][]int, sc *scratch) *forest {
	f := &forest{nodes: make([]execNode, len(s.p.atoms)), sc: sc, par: 1}
	for i, rows := range restricted {
		f.nodes[i] = execNode{
			rows:  rows,
			vars:  s.nodeVars[i],
			view:  relstr.NewView(rows),
			words: allAlive(len(rows)),
			live:  len(rows),
		}
	}
	return f
}

// treeCandidates runs the full restricted evaluation of tree ti seeded
// at seedNode and returns the candidate contribution rows (allocated
// from sc; callers copy what they keep).
func (s *IncrState) treeCandidates(ctx context.Context, sc *scratch, ti, seedNode int, seeds [][]int, sn *relstr.Snapshot, budget *int) ([][]int, error) {
	restricted, err := s.restrict(sn, seedNode, seeds, sc, budget)
	if err != nil {
		return nil, err
	}
	f := s.miniForest(restricted, sc)
	defer f.release()
	r := s.p.sched.roots[ti]
	if err := f.down(ctx, s.p.sched, r); err != nil {
		return nil, err
	}
	if err := f.up(ctx, s.p.sched, r); err != nil {
		return nil, err
	}
	tr, err := f.treeRel(ctx, s.p.sched, r)
	if err != nil {
		return nil, err
	}
	return tr.rows, nil
}

// memberSearch is the state of the membership searches of one Apply
// on the new snapshot, shared by its candidates.
type memberSearch struct {
	s      *IncrState
	sn     *relstr.Snapshot
	sc     *scratch
	budget *int
	bind   []int        // variable → value on the current search path
	key    [][]int      // node → memo key over memoVars
	memo   []searchMemo // node → outcomes per memo key
}

// searchMemo records the memo keys a node was searched under, split
// by outcome.
type searchMemo struct{ hit, miss relstr.TupleSet }

func (s *IncrState) newMemberSearch(sn *relstr.Snapshot, sc *scratch, budget *int) *memberSearch {
	ms := &memberSearch{
		s: s, sn: sn, sc: sc, budget: budget,
		bind: make([]int, s.numVars),
		key:  make([][]int, len(s.memoVars)),
		memo: make([]searchMemo, len(s.memoVars)),
	}
	for n, vars := range s.memoVars {
		ms.key[n] = make([]int, len(vars))
	}
	return ms
}

// member reports whether contribution row c is still derivable from
// tree ti on the search's snapshot: c binds the tree's kept variables
// and a first-hit search looks for one satisfying assignment
// extending it (see extends).
func (s *IncrState) member(ctx context.Context, ms *memberSearch, ti int, c []int) (bool, error) {
	if err := cqerr.Check(ctx); err != nil {
		return false, err
	}
	for k, v := range s.treeVars[ti] {
		ms.bind[v] = c[k]
	}
	return ms.extends(s.searchRoot[ti])
}

// extends reports whether some view row of node n agrees with the
// bound values of its key columns and extends into every search child
// subtree. Children are checked independently under the chosen row —
// acyclicity makes them share variables only through it. The outcome
// depends on nothing but the bound values of memoVars (the key columns
// and the kept variables below), so it is memoised under them for
// every later candidate of the Apply. Every visited row is charged to
// the budget.
func (ms *memberSearch) extends(n int) (bool, error) {
	s := ms.s
	key := ms.key[n]
	for k, x := range s.memoVars[n] {
		key[k] = ms.bind[x]
	}
	memo := &ms.memo[n]
	if memo.hit.Has(key) {
		return true, nil
	}
	if memo.miss.Has(key) {
		return false, nil
	}
	v := atomView(ms.sn, s.p.atoms[n])
	rows := v.Rows()
	var ix *relstr.Index
	id := int32(-1)
	switch {
	case len(s.keyCols[n]) > 0:
		ix, _ = v.Index(s.keyCols[n])
		ms.sc.stats.probes++
		id = ix.First(ms.bind, s.keyVars[n])
	case len(rows) > 0:
		id = 0 // nothing bound: every row matches
	}
	for id >= 0 {
		if *ms.budget--; *ms.budget < 0 {
			return false, errIncrBudget
		}
		for j, x := range s.nodeVars[n] {
			ms.bind[x] = rows[id][j]
		}
		ok := true
		for _, m := range s.searchKids[n] {
			var err error
			if ok, err = ms.extends(m); err != nil {
				return false, err
			}
			if !ok {
				break
			}
		}
		if ok {
			memo.hit.AddCopy(key)
			return true, nil
		}
		if ix != nil {
			id = ix.Next(id, ms.bind, s.keyVars[n])
		} else if id++; int(id) == len(rows) {
			id = -1
		}
	}
	memo.miss.AddCopy(key)
	return false, nil
}

// compose crosses the per-tree contributions — tree ti replaced by
// rows when ti >= 0 — in roots order (the totalVars layout) and
// projects onto the head. The projection is injective (every kept
// variable is a head variable), so crossing deduplicated contributions
// needs no dedup pass.
func (s *IncrState) compose(ti int, rows [][]int) Answers {
	sched := s.p.sched
	acc := [][]int{{}}
	for t := range s.contribs {
		part := s.contribs[t]
		if t == ti {
			part = rows
		}
		if len(part) == 0 {
			return Answers{}
		}
		if len(part) == 1 && len(part[0]) == 0 {
			continue // unit contribution (Boolean tree): no columns
		}
		next := make([][]int, 0, len(acc)*len(part))
		for _, a := range acc {
			for _, b := range part {
				row := make([]int, 0, len(a)+len(b))
				row = append(row, a...)
				row = append(row, b...)
				next = append(next, row)
			}
		}
		acc = next
	}
	out := make(Answers, len(acc))
	for k, row := range acc {
		a := make(relstr.Tuple, len(sched.head))
		for i, j := range sched.headCols {
			a[i] = row[j]
		}
		out[k] = a
	}
	return sortAnswers(out)
}

// --- tree-local executor entry points ----------------------------------

// treeRel runs the solve-phase join program of one tree over a forest
// that already went through both reduction passes, returning the
// tree's contribution relation (over the root's kept variables).
// Mirrors forest.solve's per-tree loop, including the dead-step skips
// — valid here because the passes make the (mini-)forest globally
// consistent within the tree.
func (f *forest) treeRel(ctx context.Context, sched *schedule, root int) (rel, error) {
	var rec func(i int) (rel, error)
	rec = func(i int) (rel, error) {
		if err := cqerr.Check(ctx); err != nil {
			return rel{}, err
		}
		acc := rel{vars: f.nodes[i].vars, rows: f.nodes[i].aliveRows()}
		for _, st := range sched.nodes[i].joins {
			if st.skip {
				continue
			}
			child, err := rec(st.child)
			if err != nil {
				return rel{}, err
			}
			acc = f.join(acc, child, st)
		}
		if sched.nodes[i].projCols != nil {
			acc = f.sc.project(acc, sched.nodes[i].projCols, sched.nodes[i].vars)
		}
		return acc, nil
	}
	return rec(root)
}

// flushIncr folds an incremental call's scratch counters into the plan
// totals without counting a full evaluation.
func (p *Plan) flushIncr(sc *scratch) {
	p.stats.builds.Add(sc.stats.builds)
	p.stats.probes.Add(sc.stats.probes)
	putScratch(sc)
}

// --- sorted-row helpers ------------------------------------------------

func rowCompare(a, b []int) int { return relstr.Compare(relstr.Tuple(a), relstr.Tuple(b)) }

func sortRows(rows [][]int) { slices.SortFunc(rows, rowCompare) }

func containsRow(sorted [][]int, c []int) bool {
	_, ok := slices.BinarySearchFunc(sorted, c, rowCompare)
	return ok
}

func tuplesToRows(ts []relstr.Tuple) [][]int {
	out := make([][]int, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

// mergeRows returns (base \ del) ∪ add, all inputs sorted, add
// disjoint from base and del ⊆ base.
func mergeRows(base, add, del [][]int) [][]int {
	out := make([][]int, 0, len(base)+len(add)-len(del))
	ai, di := 0, 0
	for _, b := range base {
		for ai < len(add) && rowCompare(add[ai], b) < 0 {
			out = append(out, add[ai])
			ai++
		}
		if di < len(del) && rowCompare(del[di], b) == 0 {
			di++
			continue
		}
		out = append(out, b)
	}
	out = append(out, add[ai:]...)
	return out
}

// mergeAnswers is mergeRows over answer tuples.
func mergeAnswers(base, add, del Answers) Answers {
	out := make(Answers, 0, len(base)+len(add)-len(del))
	ai, di := 0, 0
	for _, b := range base {
		for ai < len(add) && relstr.Compare(add[ai], b) < 0 {
			out = append(out, add[ai])
			ai++
		}
		if di < len(del) && relstr.Compare(del[di], b) == 0 {
			di++
			continue
		}
		out = append(out, b)
	}
	out = append(out, add[ai:]...)
	return out
}

// diffAnswers returns the sorted set differences cur \ old (added) and
// old \ cur (removed).
func diffAnswers(old, cur Answers) (added, removed Answers) {
	i, j := 0, 0
	for i < len(old) && j < len(cur) {
		switch c := relstr.Compare(old[i], cur[j]); {
		case c < 0:
			removed = append(removed, old[i])
			i++
		case c > 0:
			added = append(added, cur[j])
			j++
		default:
			i++
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, cur[j:]...)
	return added, removed
}
