package eval

// Incremental view maintenance for prepared plans: an IncrState
// persists the materialised result of one (plan, snapshot) pair —
// per-tree contribution relations plus the composed answer set — and
// propagates snapshot deltas through the join forest in work
// proportional to the change, emitting an exact answer-set diff
// instead of recomputing.
//
// The algorithm factors the answer set through the forest: each tree
// of the join forest is one connected component of the query, so the
// answers are the head projection of the cross product over trees of
// each tree's *contribution* — the projection of the tree's satisfying
// assignments onto its root's kept variables (exactly the free
// variables occurring in the tree; none for a tree without head
// variables, whose contribution is the unit row or nothing). A delta
// only moves the contributions of the trees it touches; the answer
// diff of one tree's change is its changed contribution rows crossed
// with the other trees' contributions, and the changes of several
// touched trees apply one after another (applyTrees).
//
// Within a touched tree the work is delta-sized, and all of it is the
// bag search of bags.go run over the join tree: a join tree is a tree
// decomposition with one bag per node, so each node's tree is compiled
// once per state into bag programs rooted where the work starts.
//
//   - Insert candidates: any new contribution row has a witness using an
//     inserted tuple at some node, so for each seeded node a search
//     rooted there, whose atom reads the inserted rows instead of its
//     view, emits the tree's kept variables of every assignment through
//     a seed row on the new snapshot.
//   - Delete candidates: the same search on the *old* snapshot seeded by
//     the deleted rows yields the old contributions that had a witness
//     through a deleted tuple.
//   - Membership: each delete candidate is re-checked on the new
//     snapshot by a search rooted at the node holding the most kept
//     variables, with the candidate's values pre-bound: every bag is an
//     existence check, memoised per (bag, separator and pre-bound values
//     below it) for the rest of the Apply, so a candidate without a
//     witness visits each matching row at most once.
//
// The full re-evaluation that builds the state (and every fallback)
// runs the bottom-up semijoin pass, then reads each tree's
// contribution with one more search per tree, rooted at the tree's
// root with its kept variables as the head, over the reduced forest's
// live rows (forestRun: the pass leaves every live row extending to an
// assignment of its subtree, which is all a search from the root needs).
//
// Everything is budgeted — every row a search visits, seed rows
// included, is charged: when the budget runs out, or the plan is a bag
// plan, Apply falls back to a full re-evaluation and reports it — the
// diff is still exact, computed as the sorted set difference against
// the previous answers. The fallback and incremental counters
// surface through IndexStats and Explain.

import (
	"context"
	"errors"
	"slices"

	"cqapprox/internal/relstr"
)

// DefaultIncrBudget caps the work of one Apply — the rows its candidate
// and membership searches visit, seed rows included — before it falls
// back to a full re-evaluation.
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
	answers Answers // sorted, deduplicated; replaced (never mutated) by an Apply that changes it

	// Yannakakis-mode factored state (nil for bag plans, which
	// always fall back):
	contribs   [][][]int // per tree, sorted rows over its kept (free) variables
	answerCols []int     // head position → column in the trees' concatenated kept variables
	treeOf     []int     // node → tree index
	relNodes   map[string][]int
	trees      []*bagPlan // tree → search emitting its contribution (head: the kept variables) from the reduced forest
	seeded     []*bagPlan // node → candidate search of its tree seeded at the node
	members    []*bagPlan // tree → membership search, the kept variables pre-bound
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

// Version returns the snapshot version the state currently reflects.
func (s *IncrState) Version() uint64 { return s.version }

// Answers returns the maintained answer set, sorted and deduplicated.
// The slice is shared with the state: callers must not modify it. It
// stays valid across Apply calls (updates build fresh slices).
func (s *IncrState) Answers() Answers { return s.answers }

// initMaps precomputes the per-node and per-tree lookup tables and
// compiles the search programs.
func (s *IncrState) initMaps() {
	p := s.p
	s.treeOf = make([]int, len(p.atoms))
	s.relNodes = map[string][]int{}
	s.seeded = make([]*bagPlan, len(p.atoms))
	for i, a := range p.atoms {
		s.relNodes[a.rel] = append(s.relNodes[a.rel], i)
	}
	s.trees = make([]*bagPlan, len(p.sched.roots))
	s.members = make([]*bagPlan, len(p.sched.roots))
	var cat []int
	for ti, r := range p.sched.roots {
		kept := p.csched.trees[ti].headVars
		cat = append(cat, kept...)
		s.trees[ti] = p.forestBags(kept, r)
		root, most := r, -1
		var walk func(i int)
		walk = func(i int) {
			s.treeOf[i] = ti
			s.seeded[i] = p.joinTreeBags(kept, i).compile(nil, i)
			if k := len(sharedVars(p.vars[i], kept)); k > most {
				root, most = i, k
			}
			for _, c := range p.sched.children[i] {
				walk(c)
			}
		}
		walk(r)
		s.members[ti] = p.joinTreeBags(nil, root).compile(kept, -1)
	}
	s.answerCols = make([]int, len(p.tb.Dist))
	for i, v := range p.tb.Dist {
		s.answerCols[i] = indexOf(cat, v)
	}
}

// recompute rebuilds the full state — contributions and answers — from
// a fresh evaluation on sn. State fields are only assigned on success.
func (s *IncrState) recompute(ctx context.Context, sn *relstr.Snapshot) error {
	p := s.p
	if p.mode != PlanYannakakis {
		ans, _, err := p.eval(ctx, sn, Read{Par: s.par})
		if err != nil {
			return err
		}
		s.answers = ans
		s.version = sn.Version()
		return nil
	}
	f := p.newForest(sn, s.par)
	defer p.flush(f)
	if _, err := p.reduce(ctx, f); err != nil {
		return err
	}
	contribs := make([][][]int, len(p.sched.roots))
	for ti, r := range p.sched.roots {
		if f.nodes[r].live == 0 {
			// After the bottom-up pass a root is empty iff its tree has
			// no assignment; the pass reduces every tree, empty or not.
			// The search runs no existence check, so the unit
			// contribution of a tree without kept variables depends on
			// this test.
			contribs[ti] = [][]int{}
			continue
		}
		var slab answerSlab
		search := s.trees[ti].forestRun(ctx, sn, f, slab.add)
		search.run()
		if err := p.finish(search); err != nil {
			return err
		}
		rows := cutRows[[]int](slab.data, slab.n, len(s.trees[ti].head))
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
// re-evaluation; so do bag plans and propagations past the budget —
// all reported as Fallback with a Reason and counted in
// IndexStats.IncrFallbacks. A delta touching several join trees
// propagates through each of them.
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
	diff, err := s.applyTrees(ctx, eff, oldSn, newSn)
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
	var out []effChange
	for _, name := range d.Touched() {
		if len(s.relNodes[name]) == 0 {
			continue
		}
		var ins, del relstr.TupleSet
		for _, t := range d.Inserts(name) {
			if !oldSn.Has(name, t...) && newSn.Has(name, t...) {
				ins.AddCopy(t)
			}
		}
		for _, t := range d.Deletes(name) {
			if oldSn.Has(name, t...) && !newSn.Has(name, t...) {
				del.AddCopy(t)
			}
		}
		if ins.Len()+del.Len() > 0 {
			out = append(out, effChange{rel: name, ins: tuplesToRows(ins.Rows()), del: tuplesToRows(del.Rows())})
		}
	}
	return out
}

// treeDelta is one tree's share of an Apply: the candidate
// contributions its searches found, then its contribution diff.
type treeDelta struct {
	addSeen, remSeen relstr.TupleSet
	added, removed   [][]int // sorted
}

// applyTrees propagates the effective changes through every tree they
// touch and updates the state. Every candidate and membership search
// runs first, under the one budget, and state mutation happens only
// after all of them succeeded, so a budget abort leaves the state
// untouched for the fallback. The touched trees' contributions then
// change one after another: each change's answer diff — its
// contribution rows crossed with the other trees' current
// contributions — folds into the Apply's diff (FoldDiff).
func (s *IncrState) applyTrees(ctx context.Context, eff []effChange, oldSn, newSn *relstr.Snapshot) (*IncrDiff, error) {
	budget := s.budget
	ds := make([]treeDelta, len(s.trees))
	for _, e := range eff {
		for _, n := range s.relNodes[e.rel] {
			d := &ds[s.treeOf[n]]
			if err := s.candidates(ctx, n, e.ins, newSn, &budget, &d.addSeen); err != nil {
				return nil, err
			}
			if err := s.candidates(ctx, n, e.del, oldSn, &budget, &d.remSeen); err != nil {
				return nil, err
			}
		}
	}
	for ti := range ds {
		d := &ds[ti]
		// Insert candidates already contributed before the delta are not
		// new; delete candidates still derivable on the new snapshot stay.
		for _, c := range tuplesToRows(d.addSeen.Rows()) {
			if !containsRow(s.contribs[ti], c) {
				d.added = append(d.added, c)
			}
		}
		if d.remSeen.Len() > 0 {
			r := s.members[ti].newRun(ctx, newSn, nil)
			r.budget = &budget
			for _, c := range tuplesToRows(d.remSeen.Rows()) {
				if !r.holds(c) && r.err == nil {
					d.removed = append(d.removed, c)
				}
			}
			if err := s.p.finish(r); err != nil {
				return nil, err
			}
		}
		sortRows(d.added)
		sortRows(d.removed)
	}
	// A tree or an answer set with nothing to add or delete keeps its
	// slice: mergeRows never mutates its base, and Answers is shared
	// read-only.
	var added, removed Answers
	for ti := range ds {
		d := &ds[ti]
		if len(d.added)+len(d.removed) == 0 {
			continue
		}
		a, r := s.compose(ti, d.added), s.compose(ti, d.removed)
		s.contribs[ti] = mergeRows(s.contribs[ti], d.added, d.removed)
		added, removed = FoldDiff(added, removed, a, r)
	}
	if len(added)+len(removed) > 0 {
		s.answers = mergeRows(s.answers, added, removed)
	}
	s.version = newSn.Version()
	return &IncrDiff{Added: added, Removed: removed}, nil
}

// FoldDiff folds one step's answer diff (a, r) into the diff (added,
// removed) of the steps before it, all sorted: an answer the step adds
// that an earlier step removed was an answer all along, and one it
// removes that an earlier step added never was. The first step's diff
// is returned as it is.
func FoldDiff(added, removed, a, r Answers) (Answers, Answers) {
	if len(added)+len(removed) == 0 {
		return a, r
	}
	return mergeRows(minusRows(added, r), minusRows(a, removed), nil),
		mergeRows(minusRows(removed, a), minusRows(r, added), nil)
}

// candidates adds to out the contributions of node n's tree on sn that
// have a witness through one of tuples at n: the tree's search seeded
// at n, whose atom reads the tuples' view rows instead of its view.
func (s *IncrState) candidates(ctx context.Context, n int, tuples [][]int, sn *relstr.Snapshot, budget *int, out *relstr.TupleSet) error {
	seeds := s.seedRows(n, tuples)
	if len(seeds) == 0 {
		return nil
	}
	bp := s.seeded[n]
	r := bp.newRun(ctx, sn, func(c []int) bool {
		out.AddCopy(c)
		return true
	})
	r.views[bp.seed] = relstr.NewView(seeds)
	r.budget = budget
	r.run()
	return s.p.finish(r)
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
		row := make([]int, 0, len(pat))
		for i, pi := range pat {
			if pi == i {
				row = append(row, t[i])
			}
		}
		out = append(out, row)
	}
	return out
}

// compose crosses the per-tree contributions — tree ti replaced by
// rows when ti >= 0 — in roots order and projects onto the head. The projection is injective (every kept
// variable is a head variable), so crossing deduplicated contributions
// needs no dedup pass.
func (s *IncrState) compose(ti int, rows [][]int) Answers {
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
			continue // unit contribution: a tree without kept variables
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
		a := make(relstr.Tuple, len(s.answerCols))
		for i, j := range s.answerCols {
			a[i] = row[j]
		}
		out[k] = a
	}
	return sortAnswers(out)
}

// --- sorted-row helpers ------------------------------------------------

// rowCompare orders rows and answer tuples alike (relstr.Compare).
func rowCompare[R ~[]int](a, b R) int { return relstr.Compare(relstr.Tuple(a), relstr.Tuple(b)) }

func sortRows[R ~[]int](rows []R) { slices.SortFunc(rows, rowCompare[R]) }

func containsRow[R ~[]int](sorted []R, c R) bool {
	_, ok := slices.BinarySearchFunc(sorted, c, rowCompare[R])
	return ok
}

// minusRows returns the rows of sorted a that are not in sorted b; a
// itself when b is empty.
func minusRows[R ~[]int](a, b []R) []R {
	if len(b) == 0 {
		return a
	}
	out := make([]R, 0, len(a))
	for _, r := range a {
		if !containsRow(b, r) {
			out = append(out, r)
		}
	}
	return out
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
func mergeRows[R ~[]int](base, add, del []R) []R {
	out := make([]R, 0, len(base)+len(add)-len(del))
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
