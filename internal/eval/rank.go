package eval

// Ranked (top-k) answer enumeration over a reduced liveness forest.
//
// A ranked evaluation asks for the answers in lexicographic order of a
// head-position permutation, stopping after `limit` answers. For plans
// whose join forest admits a lex-connex visit order — the head
// variables can be bound in key order by walking nodes so that every
// node attaches to an already-visited neighbor through a connector of
// already-bound head variables — the answers stream directly out of
// the forest after one semijoin pass: the bottom-up pass, rooted at
// the first visit of each tree (trees no visit reaches keep their
// root). The visited nodes of a tree then form a connected top of it,
// each later visit is a child of the visit it attaches to, and every
// live row extends to an assignment of its subtree. So each group a
// visit reads — the live rows agreeing with the bound connector
// values, projected on the visit's emitted columns, sorted in key
// direction and deduplicated — is non-empty, each of its tuples
// extends to at least one answer, and the search never meets a dead
// end. The first k tuples of a group therefore cover the first k
// answers under it: a limited read selects them with a bounded heap,
// O(n log k), and only an unlimited one, or one whose limit is not
// small against the node's live rows, sorts the whole group. Groups are
// read through the node view's hash indexes, resolved as the bag
// search resolves its probes, and memoised per call on the connector
// values, so a top-k read touches the first visit's live rows once and
// then only the groups on the paths of the answers it returns.
//
// Orders with no such visit program — the canonical example is
// Q(x,z) :- E(x,y), E(y,z), whose existential y bridges the two head
// variables — fall back to a full evaluation, a sort under the
// requested key, and truncation; the plan records the classification
// in Explain and counts both paths (rankedEvals / rankFallbacks).

import (
	"cmp"
	"context"
	"slices"
	"sync/atomic"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/obs"
	"cqapprox/internal/relstr"
)

// RankSpec is a plan-level ranked-evaluation request. Order lists head
// positions forming the primary sort key, most significant first; the
// remaining head positions are appended in ascending position order to
// make the key total. Desc flips the entire comparison (a full reverse
// of the ascending order). Limit caps the number of answers emitted;
// zero or negative means unlimited.
type RankSpec struct {
	Order []int
	Desc  bool
	Limit int
}

// ordered reports whether the spec asks for a specific answer order:
// an explicit key or a direction, not just a limit.
func (s RankSpec) ordered() bool { return len(s.Order) > 0 || s.Desc }

// ranked reports whether an Eval under the spec needs the ranked
// machinery: an order, or a limit worth terminating early for, which
// ranks under the head's natural ascending key.
func (s RankSpec) ranked() bool { return s.ordered() || s.Limit > 0 }

// perm expands the spec into a full head-position permutation.
func (s RankSpec) perm(width int) []int {
	used := make([]bool, width)
	out := make([]int, 0, width)
	for _, p := range s.Order {
		out = append(out, p)
		used[p] = true
	}
	for i := 0; i < width; i++ {
		if !used[i] {
			out = append(out, i)
		}
	}
	return out
}

// rankProgram is a compiled lex-connex visit order for one key: a
// search program with one step per visit, in key-block order — a
// step's bound columns are its connector, its free ones the head
// variables it emits, in key order — and the schedule of the bottom-up
// pass rooted at each visited tree's first visit. Both are immutable
// once built; the canonical program is shared across calls.
type rankProgram struct {
	bp       *bagPlan
	sched    *schedule
	keyWidth int // a group's memo key: the visit index and its connector values

	// spare keeps the state of the last finished limited search for
	// the next call. Unlike a sync.Pool slot it survives GCs, so a
	// serial caller's allocations per call do not depend on GC timing.
	// An unlimited search's memo can hold every live row, so its state
	// is left to the collector.
	spare atomic.Pointer[rankRun]
}

// dedupHeadIDs returns the distinct head element ids in first-occurrence
// order along perm — the sequence of key blocks a visit program must
// bind. Repeated head variables compare equal at their later positions,
// so the deduplicated id sequence induces the same tuple order as the
// full permutation.
func dedupHeadIDs(head, perm []int) []int {
	out := make([]int, 0, len(perm))
	for _, p := range perm {
		if v := head[p]; !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// rankProgramForSpec resolves the visit program for the spec's key:
// the canonical (prepare-time) program when the key matches the head's
// natural order, a freshly classified one otherwise. An order that is a
// prefix of the natural one resolves without allocating. nil means the
// order is not tractable on this forest and the call must fall back.
// Desc does not affect classification — a full reverse enumerates the
// same program with flipped emit comparisons.
func (p *Plan) rankProgramForSpec(spec RankSpec) *rankProgram {
	natural := true
	for k, pos := range spec.Order {
		if pos != k {
			natural = false
			break
		}
	}
	if natural {
		return p.ranked
	}
	ids := dedupHeadIDs(p.tb.Dist, spec.perm(len(p.tb.Dist)))
	if slices.Equal(ids, p.rankedIDs) {
		return p.ranked
	}
	return p.buildRankProgram(ids)
}

// buildRankProgram searches for a lex-connex visit order binding
// orderIDs block by block: each visit either starts a fresh tree of
// the forest or attaches to its (unique — two visited neighbors would
// close a cycle) visited neighbor through a connector of already-bound
// head variables, and must emit exactly the next block of unbound key
// ids (or nothing: a bridge making deeper nodes reachable). The search
// backtracks over node choices; queries are small, so the state space
// is too. Returns nil when no program exists.
func (p *Plan) buildRankProgram(orderIDs []int) *rankProgram {
	n := len(p.atoms)
	vars := p.vars
	adj := forestAdj(p.jt.Parent)
	comp := make([]int, n)
	for i := range comp {
		r := i
		for p.jt.Parent[r] >= 0 {
			r = p.jt.Parent[r]
		}
		comp[i] = r
	}
	headSet := map[int]bool{}
	for _, v := range p.tb.Dist {
		headSet[v] = true
	}

	// The roots come first, so a visit starts a tree at its root when
	// it can and the program keeps the plan's schedule.
	cand := slices.Clone(p.sched.roots)
	for i, par := range p.jt.Parent {
		if par != -1 {
			cand = append(cand, i)
		}
	}
	visited := make([]bool, n)
	treeVis := map[int]bool{}
	bound := map[int]bool{}
	var steps []bagStep

	var try func(bi int) bool
	try = func(bi int) bool {
		if bi == len(orderIDs) {
			return true
		}
		for _, i := range cand {
			if visited[i] {
				continue
			}
			var connIDs []int
			if treeVis[comp[i]] {
				pn := -1
				for _, w := range adj[i] {
					if visited[w] {
						pn = w
						break
					}
				}
				if pn == -1 {
					continue // not adjacent to the visited part of its tree
				}
				connIDs = sharedVars(vars[i], vars[pn])
				ok := true
				for _, v := range connIDs {
					if !bound[v] {
						ok = false
						break
					}
				}
				if !ok {
					continue // an existential (or not-yet-bound) connector
				}
			}
			var emitIDs []int
			for _, v := range vars[i] {
				if headSet[v] && !bound[v] {
					emitIDs = append(emitIDs, v)
				}
			}
			if len(emitIDs) > 0 {
				if bi+len(emitIDs) > len(orderIDs) {
					continue
				}
				win := orderIDs[bi : bi+len(emitIDs)]
				ok := true
				for _, v := range emitIDs {
					if !slices.Contains(win, v) {
						ok = false
						break
					}
				}
				if !ok {
					continue // the node's new ids are not the next key block
				}
				emitIDs = append([]int{}, win...) // reorder to the key sequence
			}
			st := bagStep{id: len(steps), atom: i, boundVars: connIDs, freeVars: emitIDs}
			for _, v := range connIDs {
				st.bound = append(st.bound, indexOf(vars[i], v))
			}
			for _, v := range emitIDs {
				st.free = append(st.free, indexOf(vars[i], v))
			}
			wasTree := treeVis[comp[i]]
			visited[i] = true
			treeVis[comp[i]] = true
			for _, v := range emitIDs {
				bound[v] = true
			}
			steps = append(steps, st)
			if try(bi + len(emitIDs)) {
				return true
			}
			steps = steps[:len(steps)-1]
			visited[i] = false
			if !wasTree {
				delete(treeVis, comp[i])
			}
			for _, v := range emitIDs {
				delete(bound, v)
			}
		}
		return false
	}
	if !try(0) {
		return nil
	}
	prog := &rankProgram{keyWidth: 1}
	var roots []int // each visited tree's first visit, which roots its pass
	clear(treeVis)
	for _, st := range steps {
		prog.keyWidth = max(prog.keyWidth, 1+len(st.bound))
		if !treeVis[comp[st.atom]] {
			treeVis[comp[st.atom]] = true
			roots = append(roots, st.atom)
		}
	}
	prog.sched = scheduleRootedAt(p.sched, vars, p.jt.Parent, roots)
	prog.bp = &bagPlan{atoms: p.atoms, avars: vars, head: p.tb.Dist, numVars: p.bags.numVars,
		seed: -1, steps: slices.Clip(steps), lastHead: -1, numSteps: len(steps), reduced: true}
	return prog
}

// rankRun is the state of one ordered search: a run of the program's
// steps over the reduced forest, and the groups read so far — memo maps
// a visit index plus its connector values (zero-padded to the
// program's key width) to a group id, spans a group id to the offset
// of its distinct emitted tuples in vals and their count.
type rankRun struct {
	bagRun
	f     *forest
	desc  bool
	limit int
	n     int // answers emitted
	memo  flatSet
	spans [][2]int
	vals  []int
	key   []int // a memo key
	tup   []int // an emitted tuple, for the heap's seen set
	ids   []int32
}

// rankSearch runs prog's ordered search over f, the forest reduced
// toward its first visits, and returns the cancellation that cut it
// short, if any.
func (p *Plan) rankSearch(ctx context.Context, f *forest, prog *rankProgram, spec RankSpec, emit func([]int) bool) error {
	var s *rankRun
	if spec.Limit > 0 {
		s = prog.spare.Swap(nil)
	}
	if s == nil {
		s = new(rankRun)
	}
	s.start(prog.bp, ctx, nil, emit)
	s.readForest(f)
	s.f, s.desc, s.limit, s.n = f, spec.Desc, spec.Limit, 0
	s.memo.reset(prog.keyWidth)
	s.key = resized(s.key, prog.keyWidth)
	s.spans, s.vals = s.spans[:0], s.vals[:0]
	s.search(0)
	p.stats.builds.Add(s.stats.builds)
	p.stats.probes.Add(s.stats.probes)
	err := s.err
	if spec.Limit > 0 {
		s.drop()
		s.f = nil
		prog.spare.Store(s)
	}
	return err
}

// search emits the answers from visit i on in key order, checking the
// context before every answer, and reports whether to go on.
func (s *rankRun) search(i int) bool {
	steps := s.bp.steps
	if i == len(steps) {
		if s.err = cqerr.Check(s.ctx); s.err != nil {
			return false
		}
		s.fillTuple()
		s.n++
		return s.emit(s.tuple) && (s.limit <= 0 || s.n < s.limit)
	}
	st := &steps[i]
	vals, n := s.group(st)
	w := len(st.freeVars)
	for k := range n {
		for j, v := range st.freeVars {
			s.bind[v] = vals[k*w+j]
		}
		if !s.search(i + 1) {
			return false
		}
	}
	return true
}

// group returns step st's group under the bound connector values —
// its tuples back to back and their count — reading it on first entry:
// the live rows agreeing with the connector, compared on the emitted
// columns in key direction and deduplicated. When the limit is small
// against the node's live rows only the first limit tuples are kept,
// selected with a bounded heap whose top is the worst kept tuple; a
// tuple seen before is either kept or no better than the top.
func (s *rankRun) group(st *bagStep) ([]int, int) {
	key := s.key
	clear(key)
	key[0] = st.id
	for k, v := range st.boundVars {
		key[1+k] = s.bind[v]
	}
	if id := s.memo.find(key); id >= 0 {
		sp := s.spans[id]
		return s.vals[sp[0]:], sp[1]
	}
	s.memo.insert(key)
	rows := s.views[st.atom].Rows()
	order := func(a, b int32) int {
		ra, rb := rows[a], rows[b]
		for _, c := range st.free {
			if d := cmp.Compare(ra[c], rb[c]); d != 0 {
				if s.desc {
					return -d
				}
				return d
			}
		}
		return 0
	}
	k := s.limit
	bounded := k > 0 && k <= s.f.nodes[st.atom].live/8
	s.seen.reset(len(st.free))
	sp := s.probe(st)
	ids := s.ids[:0]
	for id := s.first(sp, rows); id >= 0; id = s.next(sp, rows, id) {
		if !bounded {
			ids = append(ids, id)
			continue
		}
		if len(ids) == k && order(id, ids[0]) >= 0 {
			continue
		}
		s.tup = s.tup[:0]
		for _, c := range st.free {
			s.tup = append(s.tup, rows[id][c])
		}
		if !s.seen.add(s.tup) {
			continue
		}
		if len(ids) < k {
			ids = append(ids, id)
			siftUp(ids, len(ids)-1, order)
		} else {
			ids[0] = id
			siftDown(ids, 0, order)
		}
	}
	slices.SortFunc(ids, order)
	ids = slices.CompactFunc(ids, func(a, b int32) bool { return order(a, b) == 0 })
	off := len(s.vals)
	for _, id := range ids {
		for _, c := range st.free {
			s.vals = append(s.vals, rows[id][c])
		}
	}
	s.spans = append(s.spans, [2]int{off, len(ids)})
	s.ids = ids
	return s.vals[off:], len(ids)
}

// siftUp and siftDown restore the order of heap h, whose top is its
// greatest element under order, after h[i] changed.
func siftUp(h []int32, i int, order func(a, b int32) int) {
	for i > 0 {
		p := (i - 1) / 2
		if order(h[p], h[i]) >= 0 {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []int32, i int, order func(a, b int32) int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && order(h[c+1], h[c]) > 0 {
			c++
		}
		if order(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sortAnswersBy sorts tuples under the permuted key (Desc negates the
// whole comparison). perm is a full permutation, so the order is total
// on distinct tuples — no stable sort needed.
func sortAnswersBy(ts []relstr.Tuple, perm []int, desc bool) {
	slices.SortFunc(ts, func(a, b relstr.Tuple) int {
		for _, p := range perm {
			if c := cmp.Compare(a[p], b[p]); c != 0 {
				if desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
}

// streamRanked runs one ranked read end to end, passing each answer
// to emit (a buffer valid for the call only) until it returns false. A
// connex key reduces the forest bottom-up toward the program's first
// visits and runs the ordered search; any other key, and every bag
// (cyclic) plan, falls back to the full evaluation, a sort under the
// key and truncation, checking the context before every answer. A
// traced read returns its trace: "semijoin-down" and "ranked" for the
// ordered search, the plain evaluation's phases for the fallback.
func (p *Plan) streamRanked(ctx context.Context, sn *relstr.Snapshot, r Read, emit func([]int) bool) (*obs.ExecTrace, error) {
	spec := r.Rank
	var prog *rankProgram
	if p.mode == PlanYannakakis {
		prog = p.rankProgramForSpec(spec)
	}
	if prog == nil {
		p.stats.rankFallbacks.Add(1)
		ans, tr, err := p.eval(ctx, sn, r)
		if err != nil {
			return tr, err
		}
		sortAnswersBy(ans, spec.perm(len(p.tb.Dist)), spec.Desc)
		for i, t := range ans {
			if spec.Limit > 0 && i >= spec.Limit {
				break
			}
			if err := cqerr.Check(ctx); err != nil {
				return tr, err
			}
			if !emit(t) {
				break
			}
		}
		return tr, nil
	}
	p.stats.rankedEvals.Add(1)
	return p.call(sn, r, func(f *forest) error {
		return p.rankOn(ctx, f, prog, spec, emit)
	})
}

// rankOn reduces f bottom-up toward prog's first visits and runs the
// ordered search over it.
func (p *Plan) rankOn(ctx context.Context, f *forest, prog *rankProgram, spec RankSpec, emit func([]int) bool) error {
	if err := f.runDown(ctx, prog.sched); err != nil || f.anyEmpty() {
		return err
	}
	start := f.clock()
	err := p.rankSearch(ctx, f, prog, spec, emit)
	f.lap("ranked", start)
	return err
}
