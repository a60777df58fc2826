package eval

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// Answer counting over the reduced forest. Counting the answers of an
// acyclic CQ is #P-hard in general (projection is what hurts), but the
// two-pass Yannakakis reduction leaves the forest globally consistent —
// every surviving row extends to a full assignment of its tree — and on
// that invariant three exact cases become linear, decided per tree at
// prepare time:
//
//   - countUnit: the tree mentions no head variable. Its factor is 1
//     (non-emptiness is already established by the reduction).
//   - countDP: after pruning dangling existential subtrees, every
//     variable of the remaining core is free. Distinct head tuples then
//     correspond one-to-one to full join rows of the core, counted by a
//     bottom-up multiplicity DP — no row is ever materialised.
//   - countNode: the tree's head variables all live inside one node of
//     the pruned core; the count is the node's distinct projection onto
//     those columns (output-sized dedup, no join).
//
// The pruning rule: repeatedly delete a leaf u whose head variables are
// all shared with its unique neighbour. By the join-tree property u's
// interface to the rest of the tree lies in that neighbour, and global
// consistency guarantees every remaining row still extends through u —
// so deleting u changes neither the head projection nor consistency.
// This is a free-connex-style decomposition: when it bottoms out with
// existential variables still interleaved between head variables
// (countSample), exact counting is genuinely hard and the estimator
// takes over.
//
// Trees are variable-disjoint, so the answer count is the product of
// the per-tree factors. Repeated head variables are counted once: two
// head tuples are equal iff they agree on the distinct head variables,
// so every case counts assignments of the distinct-variable set.

// ErrCountOverflow reports that an exact answer count does not fit in
// uint64.
var ErrCountOverflow = errors.New("eval: answer count overflows uint64")

// errAcyclicPlan reports CountEnum called on an acyclic plan, whose
// exact count runs through PrepareCount instead.
var errAcyclicPlan = errors.New("eval: CountEnum needs a bag plan")

// countKind classifies how one tree of the forest is counted.
type countKind int

const (
	countUnit countKind = iota
	countDP
	countNode
	countSample
)

func (k countKind) String() string {
	switch k {
	case countUnit:
		return "unit"
	case countDP:
		return "dp"
	case countNode:
		return "node"
	default:
		return "sample"
	}
}

// dpEdge is one parent→child probe of a counting DP: probe the child's
// index keyed on sCols with the parent row's tCols (the same column
// alignment the semijoin schedule uses).
type dpEdge struct {
	child        int
	tCols, sCols []int
}

// countTree is the prepare-time counting program of one tree.
type countTree struct {
	root     int
	nodes    []int      // all tree nodes, postorder (children before parents)
	steps    [][]dpEdge // aligned with nodes: every child edge (the sampler's DP)
	headVars []int      // distinct head variables occurring in the tree
	kind     countKind

	// countDP: the pruned core, postorder, with its child edges.
	core      []int
	coreSteps [][]dpEdge

	// countNode: the covering node and the head-variable columns in it.
	node int
	cols []int
}

// countSchedule is the static counting classification of a plan.
type countSchedule struct {
	trees []countTree
	exact bool // no tree needs sampling
}

// newCountSchedule classifies every tree of the forest. vars are the
// nodes' distinct-variable lists, parent the (re-rooted) forest links,
// sched the evaluation schedule (for children/roots/column mappings),
// head the query head (element ids, possibly repeated).
func newCountSchedule(vars [][]int, parent []int, sched *schedule, head []int) *countSchedule {
	headSet := map[int]bool{}
	for _, v := range head {
		headSet[v] = true
	}
	cs := &countSchedule{exact: true}
	for _, r := range sched.roots {
		t := buildCountTree(vars, parent, sched, headSet, r)
		if t.kind == countSample {
			cs.exact = false
		}
		cs.trees = append(cs.trees, t)
	}
	return cs
}

// downEdge finds the scheduled bottom-up step from child c into parent
// i and returns it as a dpEdge.
func downEdge(sched *schedule, i, c int) dpEdge {
	for _, st := range sched.downOf[i] {
		if st.source == c {
			return dpEdge{child: c, tCols: st.tCols, sCols: st.sCols}
		}
	}
	panic(fmt.Sprintf("eval: no scheduled step %d→%d", c, i))
}

func buildCountTree(vars [][]int, parent []int, sched *schedule, headSet map[int]bool, root int) countTree {
	t := countTree{root: root, node: -1}
	var post func(i int)
	post = func(i int) {
		for _, c := range sched.children[i] {
			post(c)
		}
		t.nodes = append(t.nodes, i)
	}
	post(root)
	for _, i := range t.nodes {
		var edges []dpEdge
		for _, c := range sched.children[i] {
			edges = append(edges, downEdge(sched, i, c))
		}
		t.steps = append(t.steps, edges)
	}
	seen := map[int]bool{}
	for _, i := range t.nodes {
		for _, v := range vars[i] {
			if headSet[v] && !seen[v] {
				seen[v] = true
				t.headVars = append(t.headVars, v)
			}
		}
	}
	if len(t.headVars) == 0 {
		t.kind = countUnit
		return t
	}

	// Prune dangling existential subtrees: delete a leaf whose head
	// variables its unique neighbour already carries, repeatedly.
	alive := map[int]bool{}
	deg := map[int]int{}
	for _, i := range t.nodes {
		alive[i] = true
	}
	for _, i := range t.nodes {
		for _, c := range sched.children[i] {
			deg[i]++
			deg[c]++
		}
	}
	neighbours := func(i int) []int {
		var ns []int
		if p := parent[i]; p != -1 && alive[p] {
			ns = append(ns, p)
		}
		for _, c := range sched.children[i] {
			if alive[c] {
				ns = append(ns, c)
			}
		}
		return ns
	}
	prunable := func(u, nb int) bool {
		for _, v := range vars[u] {
			if headSet[v] && indexOfOrNeg(vars[nb], v) == -1 {
				return false
			}
		}
		return true
	}
	left := len(t.nodes)
	queue := append([]int{}, t.nodes...)
	for len(queue) > 0 && left > 1 {
		u := queue[0]
		queue = queue[1:]
		if !alive[u] || deg[u] != 1 {
			continue
		}
		nb := neighbours(u)[0]
		if !prunable(u, nb) {
			continue
		}
		alive[u] = false
		left--
		deg[nb]--
		if deg[nb] == 1 {
			queue = append(queue, nb)
		}
	}
	for k, i := range t.nodes {
		if !alive[i] {
			continue
		}
		t.core = append(t.core, i)
		var edges []dpEdge
		for _, e := range t.steps[k] {
			if alive[e.child] {
				edges = append(edges, e)
			}
		}
		t.coreSteps = append(t.coreSteps, edges)
	}

	if len(t.core) == 1 {
		// Pruning never discards a head variable, so the single core
		// node covers them all: distinct projection.
		t.kind = countNode
		t.node = t.core[0]
		for _, v := range t.headVars {
			t.cols = append(t.cols, indexOf(vars[t.node], v))
		}
		return t
	}
	allFree := true
	for _, i := range t.core {
		for _, v := range vars[i] {
			if !headSet[v] {
				allFree = false
			}
		}
	}
	if allFree {
		t.kind = countDP
		return t
	}
	t.kind = countSample
	return t
}

// ExactCountable reports whether every tree of the plan's forest counts
// exactly without enumeration (no countSample tree). False for bag
// (cyclic) plans.
func (p *Plan) ExactCountable() bool {
	return p.mode == PlanYannakakis && p.csched.exact
}

// --- checked uint64 arithmetic -----------------------------------------

func addU64(a, b uint64) (uint64, bool) {
	s := a + b
	return s, s >= a
}

func mulU64(a, b uint64) (uint64, bool) {
	hi, lo := bits.Mul64(a, b)
	return lo, hi == 0
}

// --- the per-call counting run -----------------------------------------

// CountRun is the per-call state of one counting evaluation: the
// reduced forest (both semijoin passes already run) plus lazily built
// per-tree samplers. Exactly one of the Tree* accessors per tree is
// typically used; Close must be called when done (it folds the run's
// counters into the plan and releases the scratch arenas).
type CountRun struct {
	p        *Plan
	f        *forest
	sc       *scratch
	empty    bool
	samplers []*treeSampler
	closed   bool
}

// PrepareCount runs the full two-pass Yannakakis reduction against sn
// and returns the counting state over the reduced forest; traced
// attaches an execution trace (phases land in it as the run goes,
// TraceSnapshot renders it before Close). It fails with ErrNotAcyclic
// on bag plans (counting those goes through CountEnum instead).
func (p *Plan) PrepareCount(ctx context.Context, sn *relstr.Snapshot, parallel int, traced bool) (*CountRun, error) {
	return p.prepareCount(ctx, sn, parallel, false, traced)
}

// prepareCount is PrepareCount with the test-only tuned thresholds.
func (p *Plan) prepareCount(ctx context.Context, sn *relstr.Snapshot, parallel int, tuned, traced bool) (*CountRun, error) {
	if p.mode != PlanYannakakis {
		return nil, ErrNotAcyclic
	}
	sc := getScratch()
	f := p.newForest(sn, sc, parallel)
	if tuned {
		f.minPar, f.morsel = 1, 2
	}
	if traced {
		f.trace = getExecTrace(len(f.nodes))
	}
	if err := f.runPasses(ctx, p.sched); err != nil {
		if tr := f.trace; tr != nil {
			f.trace = nil
			putExecTrace(tr)
		}
		f.release()
		p.flush(sc)
		return nil, err
	}
	return &CountRun{
		p:        p,
		f:        f,
		sc:       sc,
		empty:    f.anyEmpty(),
		samplers: make([]*treeSampler, len(p.csched.trees)),
	}, nil
}

// Close releases the run's scratch state and folds its counters into
// the plan. Safe to call once.
func (r *CountRun) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if tr := r.f.trace; tr != nil {
		r.f.trace = nil
		putExecTrace(tr)
	}
	r.f.release()
	r.p.flush(r.sc)
}

// Empty reports that some relation lost every row: the answer count is
// zero regardless of tree classification.
func (r *CountRun) Empty() bool { return r.empty }

// Trees returns the number of trees in the forest.
func (r *CountRun) Trees() int { return len(r.p.csched.trees) }

// TreeExactOK reports whether tree t counts exactly (its kind is not
// countSample).
func (r *CountRun) TreeExactOK(t int) bool {
	return r.p.csched.trees[t].kind != countSample
}

// TreeExact returns the exact distinct-head-projection count of tree t.
// ok is false for countSample trees (use TreeTotal/TreeSample); the
// error is ErrCountOverflow when the count exceeds uint64.
func (r *CountRun) TreeExact(ctx context.Context, t int) (n uint64, ok bool, err error) {
	if r.empty {
		return 0, true, nil
	}
	tree := &r.p.csched.trees[t]
	switch tree.kind {
	case countUnit:
		return 1, true, nil
	case countNode:
		return r.f.countDistinct(&r.f.nodes[tree.node], tree.cols), true, nil
	case countDP:
		n, err := r.runDP(ctx, tree)
		return n, true, err
	default:
		return 0, false, nil
	}
}

// CountEval counts the distinct answers the way evaluation finds them —
// the scheduled joins over the reduced forest — but hashes the head
// keys of the joined rows in place instead of building, deduplicating
// and sorting answer tuples. It is the exact count of plans with a
// countSample tree (any acyclic plan works); traced runs record the
// "join" and "count" phases.
func (r *CountRun) CountEval(ctx context.Context) (uint64, error) {
	if r.empty {
		return 0, nil
	}
	rows, cols, empty, err := r.f.solveRows(ctx, r.p.sched)
	if err != nil || empty {
		return 0, err
	}
	var start time.Time
	if r.f.trace != nil {
		start = time.Now()
	}
	n := r.sc.countKeys(rows, cols)
	if tr := r.f.trace; tr != nil {
		tr.phase("count", time.Since(start))
	}
	return n, nil
}

// dpStep is a dpEdge resolved against the run's views: the child's
// per-key count sums (the dense kernel) or its probe index plus its
// (already computed) per-row counts.
type dpStep struct {
	dense     bool
	sums, ovf []uint64 // dense: see keySums
	buf       *keyBuf  // dense: sums' pooled storage
	ix        *relstr.Index
	tCols     []int
	cnt       []uint64
}

// runDP executes the multiplicity DP over tree.core and sums the
// root's live counts.
func (r *CountRun) runDP(ctx context.Context, tree *countTree) (uint64, error) {
	cnt, err := r.f.dpCounts(ctx, tree)
	if err != nil {
		return 0, err
	}
	root := tree.core[len(tree.core)-1]
	var total uint64
	rc := cnt[root]
	for _, w := range liveIDs(&r.f.nodes[root]) {
		var ok bool
		if total, ok = addU64(total, rc[w]); !ok {
			return 0, ErrCountOverflow
		}
	}
	return total, nil
}

// dpCounts runs the DP bottom-up over tree.core: each live row's count
// is the product over children of the sum of matching child-row
// counts; dead rows keep count zero, so the index probe loops need no
// liveness checks. The per-node loop is morsel-parallel over
// word-aligned liveness ranges, exactly like the semijoin pass. It
// returns every core node's per-row counts.
func (f *forest) dpCounts(ctx context.Context, tree *countTree) (map[int][]uint64, error) {
	cnt := map[int][]uint64{}
	for k, i := range tree.core {
		if err := cqerr.Check(ctx); err != nil {
			return nil, err
		}
		node := &f.nodes[i]
		steps := make([]dpStep, len(tree.coreSteps[k]))
		for j, e := range tree.coreSteps[k] {
			steps[j] = f.resolveDP(i, e, cnt[e.child])
		}
		out := make([]uint64, len(node.rows))
		ok := f.countDP(node, steps, out)
		for _, st := range steps {
			if st.buf != nil {
				putKeyBuf(st.buf)
			}
		}
		if !ok {
			return nil, ErrCountOverflow
		}
		cnt[i] = out
	}
	return cnt, nil
}

// resolveDP resolves the DP edge e into node i, choosing the kernel the
// way the semijoin does (dense.go). Either way node i's live rows count
// as probes.
func (f *forest) resolveDP(i int, e dpEdge, cnt []uint64) dpStep {
	node, child := &f.nodes[i], &f.nodes[e.child]
	f.probes.Add(uint64(node.live))
	var nt *nodeTraceCtr
	if tr := f.trace; tr != nil {
		nt = &tr.nodes[i]
		nt.probes.Add(uint64(node.live))
	}
	st := dpStep{tCols: e.tCols, cnt: cnt}
	if len(e.sCols) == 1 {
		buf := getKeyBuf()
		if st.sums, st.ovf, st.dense = keySums(child, e.sCols[0], sumLimit(node.live, child.live), cnt, buf); st.dense {
			st.buf = buf
		} else {
			putKeyBuf(buf)
		}
	}
	if st.dense {
		if nt != nil {
			nt.dense.Add(1)
		}
	} else {
		st.ix = f.index(child, e.sCols, nt)
	}
	return st
}

// liveIDs returns the row ids of a node's live rows.
func liveIDs(n *execNode) []int32 {
	out := make([]int32, 0, n.live)
	for w, word := range n.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, int32(w<<6|b))
		}
	}
	return out
}

// countDP fills out[id] for node's live rows, morsel-parallel when the
// node is large. Returns false on uint64 overflow.
func (f *forest) countDP(node *execNode, steps []dpStep, out []uint64) bool {
	nw := len(node.words)
	if f.par <= 1 || node.live < f.parMin() {
		return countDPRange(node, steps, out, 0, nw)
	}
	mw := f.morselWordSize()
	chunks := (nw + mw - 1) / mw
	if tr := f.trace; tr != nil {
		tr.addChunks(chunks)
	}
	var next atomic.Int64
	var overflowed atomic.Bool
	var wg sync.WaitGroup
	work := func() {
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks || overflowed.Load() {
				return
			}
			if !countDPRange(node, steps, out, c*mw, min((c+1)*mw, nw)) {
				overflowed.Store(true)
			}
		}
	}
	for k := 1; k < chunks && f.tryWorker(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.putWorker()
			work()
		}()
	}
	work()
	wg.Wait()
	return !overflowed.Load()
}

// countDPRange computes the per-row counts for the live rows of the
// word range [lo, hi). Ranges are word-aligned, so parallel workers
// never write the same rows.
func countDPRange(node *execNode, steps []dpStep, out []uint64, lo, hi int) bool {
	for w := lo; w < hi; w++ {
		word := node.words[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			id := int32(w<<6 | b)
			row := node.rows[id]
			c := uint64(1)
			for _, st := range steps {
				var s uint64
				var ok bool
				if st.dense {
					// A key out of range (negative ones wrap) has no partner.
					if v := uint(row[st.tCols[0]]); v < uint(len(st.sums)) {
						if st.ovf != nil && st.ovf[v>>6]&(1<<(v&63)) != 0 {
							return false
						}
						s = st.sums[v]
					}
				} else {
					for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
						if s, ok = addU64(s, st.cnt[sid]); !ok {
							return false
						}
					}
				}
				if c, ok = mulU64(c, s); !ok {
					return false
				}
			}
			out[id] = c
		}
	}
	return true
}

// countDistinct counts the distinct projections of a node's live rows
// onto cols — the countNode case. When cols covers every column the
// projection permutes distinct rows and the live count is the answer;
// otherwise rows dedup into chunk-local tuple sets merged like the
// head projection, counting instead of materialising answers.
func (f *forest) countDistinct(node *execNode, cols []int) uint64 {
	if len(cols) == len(node.vars) {
		return uint64(node.live)
	}
	rows := node.aliveRows()
	if f.par <= 1 || len(rows) < f.parMin() {
		var seen relstr.TupleSet
		buf := make([]int, len(cols))
		for _, row := range rows {
			for i, j := range cols {
				buf[i] = row[j]
			}
			seen.AddCopy(buf)
		}
		return uint64(seen.Len())
	}
	mr := f.morselSize()
	chunks := (len(rows) + mr - 1) / mr
	if tr := f.trace; tr != nil {
		tr.addChunks(chunks)
	}
	parts := make([]*relstr.TupleSet, chunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func() {
		buf := make([]int, len(cols))
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			var seen relstr.TupleSet
			for _, row := range rows[c*mr : min((c+1)*mr, len(rows))] {
				for i, j := range cols {
					buf[i] = row[j]
				}
				seen.AddCopy(buf)
			}
			parts[c] = &seen
		}
	}
	for k := 1; k < chunks && f.tryWorker(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.putWorker()
			work()
		}()
	}
	work()
	wg.Wait()
	var seen relstr.TupleSet
	for _, p := range parts {
		for _, t := range p.Rows() {
			seen.Add(t)
		}
	}
	return uint64(seen.Len())
}

// --- sampling estimator support ----------------------------------------

// treeSampler supports the FPRAS-style estimator on one countSample
// tree: the full-join multiplicity DP in float64 (total = N, the
// number of complete assignments of the tree), uniform top-down
// sampling of one assignment proportional to the DP weights, and the
// pinned count of the multiplicity m of a sampled head projection.
// N/m is then an unbiased estimate of the number of distinct head
// projections. The DP runs once per call; a sample costs the rows it
// matches, not the forest (see multiplicity).
type treeSampler struct {
	nodes  []sampleNode // aligned with tree.nodes (postorder, root last)
	total  float64
	prefix []float64 // running sums of the root's live weights, in live order
	hv     []int     // the sampled head assignment, aligned with tree.headVars

	// rootIx indexes the root's rows on its head columns; pin holds the
	// sampled values of those columns and pinCols is 0..len(pin)-1. nil
	// when the root holds no head variable.
	rootIx  *relstr.Index
	pin     []int
	pinCols []int
}

// sampleNode is one tree node's sampling state.
type sampleNode struct {
	rows  [][]int
	w     []float64 // full-join DP weight per row (0 for dead rows)
	live  []int32   // live row ids, ascending
	head  [][2]int  // (column, hv position) of each head variable in the node
	steps []sampleStep
	// pinned: the node's subtree holds a head variable, so its rows
	// must agree with the sampled head values.
	pinned bool
}

// sampleStep probes child (a position in treeSampler.nodes) keyed on
// the parent row's tCols.
type sampleStep struct {
	child int
	ix    *relstr.Index
	tCols []int
}

// sampler lazily builds the tree's sampling state (the full DP runs
// once; every sample reuses it).
func (r *CountRun) sampler(t int) (*treeSampler, error) {
	if s := r.samplers[t]; s != nil {
		return s, nil
	}
	f := r.f
	tree := &r.p.csched.trees[t]
	pos := make([]int, len(f.nodes))
	for k, i := range tree.nodes {
		pos[i] = k
	}
	s := &treeSampler{
		nodes: make([]sampleNode, len(tree.nodes)),
		hv:    make([]int, len(tree.headVars)),
	}
	// Full-join DP, postorder: weight of a live row = product over
	// children of the summed weights of its matching rows (dead rows
	// stay 0).
	for k, i := range tree.nodes {
		node := &f.nodes[i]
		sn := &s.nodes[k]
		sn.rows = node.rows
		sn.live = liveIDs(node)
		sn.w = make([]float64, len(node.rows))
		for j, v := range node.vars {
			if h := indexOfOrNeg(tree.headVars, v); h >= 0 {
				sn.head = append(sn.head, [2]int{j, h})
			}
		}
		sn.pinned = len(sn.head) > 0
		for _, e := range tree.steps[k] {
			ix, built := f.nodes[e.child].view.Index(e.sCols)
			if built {
				f.builds.Add(1)
			}
			sn.steps = append(sn.steps, sampleStep{child: pos[e.child], ix: ix, tCols: e.tCols})
			sn.pinned = sn.pinned || s.nodes[pos[e.child]].pinned
		}
		f.probes.Add(uint64(node.live))
		if tr := f.trace; tr != nil {
			tr.nodes[i].probes.Add(uint64(node.live))
		}
		for _, id := range sn.live {
			row := node.rows[id]
			c := 1.0
			for _, st := range sn.steps {
				sum := 0.0
				cw := s.nodes[st.child].w
				for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
					sum += cw[sid]
				}
				c *= sum
			}
			sn.w[id] = c
		}
	}
	root := &s.nodes[len(s.nodes)-1]
	s.prefix = make([]float64, len(root.live))
	for j, id := range root.live {
		s.total += root.w[id]
		s.prefix[j] = s.total
	}
	if len(root.head) > 0 {
		cols := make([]int, len(root.head))
		s.pinCols = make([]int, len(root.head))
		for j, hc := range root.head {
			cols[j] = hc[0]
			s.pinCols[j] = j
		}
		ix, built := f.nodes[tree.root].view.Index(cols)
		if built {
			f.builds.Add(1)
		}
		s.rootIx = ix
		s.pin = make([]int, len(cols))
	}
	r.samplers[t] = s
	return s, nil
}

// TreeTotal returns the full-join assignment count N of tree t (the
// sampler's normalising constant), building the sampler if needed.
func (r *CountRun) TreeTotal(t int) (float64, error) {
	s, err := r.sampler(t)
	if err != nil {
		return 0, err
	}
	return s.total, nil
}

// TreeSample draws one uniform full assignment of tree t, computes the
// multiplicity m of its head projection, and returns the unbiased
// per-sample estimate N/m of the tree's distinct-projection count.
func (r *CountRun) TreeSample(t int, rng *rand.Rand) (float64, error) {
	s, err := r.sampler(t)
	if err != nil {
		return 0, err
	}
	if s.total <= 0 {
		return 0, fmt.Errorf("eval: sampling an empty tree")
	}
	return treeSample(s, rng)
}

// treeSample is the per-sample step of TreeSample: the seam the tests
// swap for the reference O(forest) sampler to check the two agree.
var treeSample = (*treeSampler).sample

func (s *treeSampler) sample(rng *rand.Rand) (float64, error) {
	root := len(s.nodes) - 1
	s.descend(rng, root, s.pickRoot(rng))
	m := s.multiplicity()
	if m <= 0 {
		return 0, fmt.Errorf("eval: sampled assignment has zero multiplicity")
	}
	return s.total / m, nil
}

// pickRoot selects a live root row with probability w/total: the first
// row whose running weight sum exceeds the target, by binary search
// over the prefix sums (the same sums, in the same order, a linear
// scan accumulates — so the pick is identical).
func (s *treeSampler) pickRoot(rng *rand.Rand) int32 {
	target := rng.Float64() * s.total
	j := sort.Search(len(s.prefix), func(j int) bool { return s.prefix[j] > target })
	live := s.nodes[len(s.nodes)-1].live
	if j == len(live) {
		j-- // float rounding: fall back to the last candidate
	}
	return live[j]
}

// descend fixes node k to row id, records its head values, and samples
// one matching row per child proportional to the child's DP weights.
func (s *treeSampler) descend(rng *rand.Rand, k int, id int32) {
	n := &s.nodes[k]
	row := n.rows[id]
	for _, hc := range n.head {
		s.hv[hc[1]] = row[hc[0]]
	}
	for _, st := range n.steps {
		cw := s.nodes[st.child].w
		sum := 0.0
		last := int32(-1)
		for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
			sum += cw[sid]
			if cw[sid] > 0 {
				last = sid
			}
		}
		target := rng.Float64() * sum
		acc := 0.0
		chosen := last
		for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
			acc += cw[sid]
			if acc > target && cw[sid] > 0 {
				chosen = sid
				break
			}
		}
		s.descend(rng, st.child, chosen)
	}
}

// multiplicity returns the number m ≥ 1 of full assignments of the
// tree that agree with the sampled head values: the sum, over the root
// rows holding the sampled values (one index probe on the root's head
// columns), of their pinned weights.
func (s *treeSampler) multiplicity() float64 {
	root := len(s.nodes) - 1
	rn := &s.nodes[root]
	m := 0.0
	if s.rootIx == nil {
		// No head variable at the root: every live root row is a
		// candidate (correct, but a scan of the root).
		for _, id := range rn.live {
			m += s.pinnedWeight(root, id)
		}
		return m
	}
	for j, hc := range rn.head {
		s.pin[j] = s.hv[hc[1]]
	}
	for id := s.rootIx.First(s.pin, s.pinCols); id >= 0; id = s.rootIx.Next(id, s.pin, s.pinCols) {
		if rn.w[id] > 0 { // dead rows weigh 0
			m += s.pinnedWeight(root, id)
		}
	}
	return m
}

// pinnedWeight counts the assignments of node k's subtree that extend
// row id (which already agrees with the sampled head values) and agree
// with them everywhere below. A child subtree without head variables
// contributes its cached DP weights; a pinned one recurses into the
// live matching rows that hold the sampled values. Sums run in index
// chain order like the full DP's, and dead or disagreeing rows — which
// a full pinned DP would weigh 0 — are skipped, so the result is the
// same float the full DP computes.
func (s *treeSampler) pinnedWeight(k int, id int32) float64 {
	n := &s.nodes[k]
	row := n.rows[id]
	c := 1.0
	for _, st := range n.steps {
		child := &s.nodes[st.child]
		sum := 0.0
	rows:
		for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
			if !child.pinned {
				sum += child.w[sid]
				continue
			}
			if child.w[sid] == 0 {
				continue
			}
			crow := child.rows[sid]
			for _, hc := range child.head {
				if crow[hc[0]] != s.hv[hc[1]] {
					continue rows
				}
			}
			sum += s.pinnedWeight(st.child, sid)
		}
		if sum == 0 {
			return 0
		}
		c *= sum
	}
	return c
}

// --- enumeration fallbacks ---------------------------------------------

// CountEnum counts the distinct answers by enumeration: the bag
// search's answers are counted without being kept beyond its dedup
// set. It is the exact count of bag (cyclic) plans and fails with
// errAcyclicPlan on acyclic ones, which PrepareCount counts.
func (p *Plan) CountEnum(ctx context.Context, sn *relstr.Snapshot) (uint64, error) {
	if p.mode == PlanYannakakis {
		return 0, errAcyclicPlan
	}
	var n uint64
	if err := p.searchBags(ctx, sn, func([]int) bool { n++; return true }); err != nil {
		return 0, err
	}
	return n, nil
}
