package eval

// Ranked (top-k) answer enumeration over the reduced liveness forest.
//
// A ranked evaluation asks for the answers in lexicographic order of a
// head-position permutation, stopping after `limit` answers. For plans
// whose join forest admits a lex-connex visit order — the head
// variables can be bound in key order by walking nodes so that every
// node attaches to an already-visited neighbor through a connector of
// already-bound head variables — the answers stream directly out of
// the Yannakakis-reduced forest: one sorted, deduplicated projection
// per visited node, probed by binary search on the connector prefix,
// enumerated by a last-position-first odometer. After the O(|D|·|Q|)
// reduction and the per-view sorts, each answer costs O(|Q|·log|D|),
// so top-k never pays for the answers it does not emit. Global
// consistency of the reduced forest (every live row has a live partner
// in every neighbor) guarantees every probe range is non-empty — the
// odometer never hits a dead end, and the views' dedup on
// connector++emit columns makes each emitted tuple distinct.
//
// Orders with no such visit program — the canonical example is
// Q(x,z) :- E(x,y), E(y,z), whose existential y bridges the two head
// variables — fall back to a full evaluation, a sort under the
// requested key, and truncation; the plan records the classification
// in Explain and counts both paths (rankedEvals / rankFallbacks).

import (
	"cmp"
	"context"
	"iter"
	"math/bits"
	"slices"
	"sort"

	"cqapprox/internal/cqerr"
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

// rankVisit is one step of a lex-connex visit program: materialise the
// node's live rows projected onto connCols++emitCols (sorted, conn
// ascending then emit in key direction, deduplicated), and for each
// row of the parent visit's view enumerate the rows matching the
// connector values drawn from the parent row at connSrc.
type rankVisit struct {
	node   int
	parent int // parent visit index, -1 for a tree root

	connIDs []int // connector element ids (all bound head variables)
	emitIDs []int // newly bound head ids, in key order

	connCols []int // connector columns in the node's variable list
	connSrc  []int // aligned: each connector value's column in the parent's view row
	emitCols []int // emitted columns in the node's variable list, in emitIDs order
}

// rankProgram is a compiled lex-connex visit order for one key: the
// visits in key-block order plus, per head position, where the
// position's value lives (visit index, view-row column). Immutable
// once built; the canonical program is shared across calls.
type rankProgram struct {
	visits  []rankVisit
	headOut [][2]int
}

// dedupHeadIDs returns the distinct head element ids in first-occurrence
// order along perm — the sequence of key blocks a visit program must
// bind. Repeated head variables compare equal at their later positions,
// so the deduplicated id sequence induces the same tuple order as the
// full permutation.
func dedupHeadIDs(head, perm []int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, len(perm))
	for _, p := range perm {
		if v := head[p]; !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// rankProgramForSpec resolves the visit program for the spec's key:
// the canonical (prepare-time) program when the key matches the head's
// natural order, a freshly classified one otherwise. nil means the
// order is not tractable on this forest and the call must fall back.
// Desc does not affect classification — a full reverse enumerates the
// same program with flipped emit comparisons.
func (p *Plan) rankProgramForSpec(perm []int) *rankProgram {
	ids := dedupHeadIDs(p.tb.Dist, perm)
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
	vars := make([][]int, n)
	for i, a := range p.atoms {
		vars[i] = a.distinctVars()
	}
	adj := make([][]int, n)
	comp := make([]int, n)
	for i, par := range p.jt.Parent {
		if par >= 0 {
			adj[i] = append(adj[i], par)
			adj[par] = append(adj[par], i)
		}
	}
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

	visited := make([]bool, n)
	visitOf := make([]int, n)
	for i := range visitOf {
		visitOf[i] = -1
	}
	treeVis := map[int]bool{}
	bound := map[int]bool{}
	var visits []rankVisit

	var try func(bi int) bool
	try = func(bi int) bool {
		if bi == len(orderIDs) {
			return true
		}
		for i := 0; i < n; i++ {
			if visited[i] {
				continue
			}
			pv := -1
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
				pv = visitOf[pn]
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
			vs := rankVisit{node: i, parent: pv, connIDs: connIDs, emitIDs: emitIDs}
			if pv >= 0 {
				layout := append(append([]int{}, visits[pv].connIDs...), visits[pv].emitIDs...)
				ok := true
				for _, v := range connIDs {
					j := slices.Index(layout, v)
					if j == -1 {
						ok = false
						break
					}
					vs.connSrc = append(vs.connSrc, j)
					vs.connCols = append(vs.connCols, indexOf(vars[i], v))
				}
				if !ok {
					continue // unreachable on a valid join tree; defensive
				}
			}
			for _, v := range emitIDs {
				vs.emitCols = append(vs.emitCols, indexOf(vars[i], v))
			}
			wasTree := treeVis[comp[i]]
			visited[i] = true
			treeVis[comp[i]] = true
			for _, v := range emitIDs {
				bound[v] = true
			}
			visits = append(visits, vs)
			visitOf[i] = len(visits) - 1
			if try(bi + len(emitIDs)) {
				return true
			}
			visits = visits[:len(visits)-1]
			visitOf[i] = -1
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
	prog := &rankProgram{visits: append([]rankVisit{}, visits...)}
	emitAt := map[int][2]int{}
	for vi := range prog.visits {
		nc := len(prog.visits[vi].connCols)
		for k, id := range prog.visits[vi].emitIDs {
			emitAt[id] = [2]int{vi, nc + k}
		}
	}
	prog.headOut = make([][2]int, len(p.tb.Dist))
	for pos, id := range p.tb.Dist {
		prog.headOut[pos] = emitAt[id]
	}
	return prog
}

// buildRankView materialises one visit's sorted view: the node's live
// rows projected onto connCols++emitCols, sorted by connector columns
// ascending then emit columns in key direction, adjacent duplicates
// compacted. The rows live in one slab owned by the view.
func buildRankView(n *execNode, vs *rankVisit, desc bool) [][]int {
	nc := len(vs.connCols)
	w := nc + len(vs.emitCols)
	rows := make([][]int, 0, n.live)
	slab := make([]int, n.live*w)
	off := 0
	for wi, word := range n.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			src := n.rows[wi<<6|b]
			dst := slab[off : off+w : off+w]
			off += w
			for k, c := range vs.connCols {
				dst[k] = src[c]
			}
			for k, c := range vs.emitCols {
				dst[nc+k] = src[c]
			}
			rows = append(rows, dst)
		}
	}
	slices.SortFunc(rows, func(a, b []int) int {
		for k := 0; k < nc; k++ {
			if c := cmp.Compare(a[k], b[k]); c != 0 {
				return c
			}
		}
		for k := nc; k < w; k++ {
			if c := cmp.Compare(a[k], b[k]); c != 0 {
				if desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	out := rows[:0]
	for i, r := range rows {
		if i > 0 && slices.Equal(out[len(out)-1], r) {
			continue
		}
		out = append(out, r)
	}
	return out
}

// comparePrefix compares the first nc columns of row against key.
func comparePrefix(row, key []int, nc int) int {
	for k := 0; k < nc; k++ {
		if c := cmp.Compare(row[k], key[k]); c != 0 {
			return c
		}
	}
	return 0
}

// enumerateRanked drives the odometer over the sorted views: positions
// advance last-first (the least significant key block), and advancing
// position j recomputes the probe ranges of every later visit from its
// parent's new current row. Ranges are found by binary search on the
// connector prefix (which stays ascending even under desc). The context
// is checked before every answer, as StreamOnErr checks it.
func enumerateRanked(ctx context.Context, prog *rankProgram, views [][][]int, width, limit int, yield func(relstr.Tuple) bool) error {
	nv := len(prog.visits)
	if nv == 0 {
		// Boolean-shaped key: the single (empty-head) answer.
		if err := cqerr.Check(ctx); err != nil {
			return err
		}
		yield(relstr.Tuple{})
		return nil
	}
	lo := make([]int, nv)
	hi := make([]int, nv)
	cur := make([]int, nv)
	var key []int
	rng := func(i int) bool {
		vs := &prog.visits[i]
		rows := views[i]
		if vs.parent == -1 {
			lo[i], hi[i] = 0, len(rows)
		} else {
			prow := views[vs.parent][cur[vs.parent]]
			key = key[:0]
			for _, c := range vs.connSrc {
				key = append(key, prow[c])
			}
			nc := len(key)
			lo[i] = sort.Search(len(rows), func(k int) bool { return comparePrefix(rows[k], key, nc) >= 0 })
			hi[i] = lo[i] + sort.Search(len(rows)-lo[i], func(k int) bool { return comparePrefix(rows[lo[i]+k], key, nc) > 0 })
		}
		cur[i] = lo[i]
		return lo[i] < hi[i]
	}
	for i := 0; i < nv; i++ {
		if !rng(i) {
			// Globally consistent forests never produce an empty range;
			// treat one defensively as an exhausted enumeration.
			return nil
		}
	}
	emitted := 0
	for {
		t := make(relstr.Tuple, width)
		for pos, out := range prog.headOut {
			t[pos] = views[out[0]][cur[out[0]]][out[1]]
		}
		if err := cqerr.Check(ctx); err != nil {
			return err
		}
		if !yield(t) {
			return nil
		}
		emitted++
		if limit > 0 && emitted >= limit {
			return nil
		}
		j := nv - 1
		for ; j >= 0; j-- {
			if cur[j]+1 < hi[j] {
				cur[j]++
				break
			}
		}
		if j < 0 {
			return nil
		}
		for k := j + 1; k < nv; k++ {
			if !rng(k) {
				return nil // defensive, as above
			}
		}
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

// rankFallback is the untractable-order path: full evaluation, sort
// under the requested key, truncate at limit, checking the context
// before every answer. Bag (cyclic) plans always take it — EvalOn
// routes them to the bag search.
func (p *Plan) rankFallback(ctx context.Context, sn *relstr.Snapshot, parallel int, perm []int, desc bool, limit int, yield func(relstr.Tuple) bool) error {
	p.stats.rankFallbacks.Add(1)
	ans, err := p.EvalOn(ctx, sn, parallel)
	if err != nil {
		return err
	}
	sortAnswersBy(ans, perm, desc)
	for i, t := range ans {
		if limit > 0 && i >= limit {
			return nil
		}
		if err := cqerr.Check(ctx); err != nil {
			return err
		}
		if !yield(t) {
			return nil
		}
	}
	return nil
}

// streamRanked runs one ranked evaluation end to end: classify the
// key, then either the connex pipeline (reduce, build sorted views —
// in parallel across visits when the budget allows — and enumerate) or
// the fallback. tuned lowers the parallel thresholds so tiny test
// inputs drive the morsel machinery.
func (p *Plan) streamRanked(ctx context.Context, sn *relstr.Snapshot, parallel int, spec RankSpec, tuned bool, yield func(relstr.Tuple) bool) error {
	width := len(p.tb.Dist)
	perm := spec.perm(width)
	if p.mode != PlanYannakakis {
		return p.rankFallback(ctx, sn, parallel, perm, spec.Desc, spec.Limit, yield)
	}
	prog := p.rankProgramForSpec(perm)
	if prog == nil {
		return p.rankFallback(ctx, sn, parallel, perm, spec.Desc, spec.Limit, yield)
	}
	p.stats.rankedEvals.Add(1)
	f := p.newForest(sn, parallel)
	if tuned {
		f.minPar, f.morsel = 1, 2
	}
	defer p.flush(f)
	if err := f.runPasses(ctx, p.sched); err != nil {
		return err
	}
	if f.anyEmpty() {
		return nil
	}
	views := make([][][]int, len(prog.visits))
	fns := make([]func() error, len(prog.visits))
	for i := range prog.visits {
		fns[i] = func() error {
			views[i] = buildRankView(&f.nodes[prog.visits[i].node], &prog.visits[i], spec.Desc)
			return nil
		}
	}
	if err := f.fanOut(fns); err != nil {
		return err
	}
	return enumerateRanked(ctx, prog, views, width, spec.Limit, yield)
}

// StreamRankedOn enumerates answers in the spec's key order against a
// snapshot and worker budget (the budget applies to the
// semijoin reduction and the view builds; the ordered enumeration
// itself is sequential). Connex keys stream with early termination at
// Limit; others evaluate fully, sort, and truncate. The terminal-error
// accessor follows the StreamOnErr contract.
func (p *Plan) StreamRankedOn(ctx context.Context, sn *relstr.Snapshot, parallel int, spec RankSpec) (iter.Seq[relstr.Tuple], func() error) {
	var terminal error
	seq := func(yield func(relstr.Tuple) bool) {
		terminal = p.streamRanked(ctx, sn, parallel, spec, false, yield)
	}
	return seq, func() error { return terminal }
}

// EvalRankedOn materialises StreamRankedOn: at most Limit answers, in
// the spec's key order (not the Answers default order unless the spec
// is the natural ascending key).
func (p *Plan) EvalRankedOn(ctx context.Context, sn *relstr.Snapshot, parallel int, spec RankSpec) (Answers, error) {
	seq, errf := p.StreamRankedOn(ctx, sn, parallel, spec)
	out := []relstr.Tuple{}
	for t := range seq {
		out = append(out, t)
	}
	if err := errf(); err != nil {
		return nil, err
	}
	return Answers(out), nil
}
