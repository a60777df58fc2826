package eval

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// The morsel-driven semijoin executor. One forest replays a
// prepare-time schedule against a snapshot's atom views: per-call row
// liveness is a bitmap per node (never in-place row filtering, so
// backing rows stay shared and immutable), and semijoin steps test a
// dense summary of the source's live keys or probe the views' hash
// indexes (dense.go). A counting pass also carries per-row weights on
// the nodes it counts over, and its weighted steps run the counting DP
// in the same kernel (count.go). The answers are then enumerated by
// the bag search over the reduced forest's live rows (bags.go,
// forestRun).
//
// Parallelism is morsel-driven: the probe loop of a semijoin step
// splits its rows into fixed-size chunks (morselRows) claimed from an
// atomic counter by up to `par` workers, and the bottom-up pass
// additionally fans out across independent sibling subtrees.
// Determinism is by construction: bitmap clearing is per-row
// independent, so the liveness state after the pass is byte-identical
// to a serial run's, except in the subtrees a serial pass skips below
// an emptied node (see down), whose tree has no answer.

const (
	// morselRows is the fixed number of rows in one parallel work unit.
	// Bitmap morsels are word-aligned (64-row granularity) so
	// concurrent workers never write the same liveness word.
	morselRows = 1024
	// parThreshold is the minimum live-row count worth fanning out; a
	// smaller loop runs serially even on a parallel forest.
	parThreshold = 2 * morselRows
)

// execNode is one join-forest node under the executor: the
// view's rows, the call-local liveness bitmap that stands in for
// in-place filtering, the view whose index cache serves probes, and —
// on a node a counting pass weighs — the per-row weights.
type execNode struct {
	rows  [][]int
	vars  []int
	view  *relstr.View
	words []uint64 // bit id set ⇔ row id alive
	live  int
	wt    []uint64 // weighted nodes only: a row's extensions into its subtree, 0 once dead
}

func (n *execNode) alive(id int32) bool {
	return n.words[id>>6]&(1<<(uint(id)&63)) != 0
}

func (n *execNode) clearAll() {
	clear(n.words)
	clear(n.wt)
	n.live = 0
}

// weigh gives a node its per-row weights before its first weighted
// step: 1 for a live row, 0 for a dead one. Later calls keep them.
func (n *execNode) weigh() {
	if n.wt != nil {
		return
	}
	n.wt = make([]uint64, len(n.rows))
	for w, word := range n.words {
		for ; word != 0; word &= word - 1 {
			n.wt[w<<6|bits.TrailingZeros64(word)] = 1
		}
	}
}

// fillAlive sets the first n bits of words (len (n+63)/64).
func fillAlive(words []uint64, n int) {
	for w := range words {
		words[w] = ^uint64(0)
	}
	if n%64 != 0 && len(words) > 0 {
		words[len(words)-1] = (1 << uint(n%64)) - 1
	}
}

// forest is the per-call state of one evaluation: the nodes and the
// worker budget. Index-build and probe counters are atomics (parallel
// subtrees and morsels update them) folded into the plan totals by
// Plan.flush.
type forest struct {
	nodes []execNode
	par   int

	// slots holds the par-1 extra-worker tokens of this evaluation.
	// Every fan-out — sibling subtrees, morsels —
	// spawns a goroutine only while it can claim a token (the calling
	// goroutine always participates without one), so the worker budget
	// is a genuine global cap on the evaluation's concurrency even
	// when fan-outs nest. Acquisition never blocks: with no token
	// free, work simply runs on the caller.
	slots chan struct{}

	// Test-only tuning: lowered fan-out threshold and morsel size so
	// tiny fuzz inputs drive the parallel machinery. Zero means the
	// production constants.
	minPar int
	morsel int

	builds atomic.Uint64
	probes atomic.Uint64
	// overflow: some live row of a weighted node weighs 2^64 or more,
	// so the count the weights make overflows uint64 (see settle).
	overflow atomic.Bool

	// trace is the call's ANALYZE frame, nil unless the caller opted
	// in (a traced Plan.call). Every hot-path hook is a single nil
	// check — the trace-off path records nothing and allocates nothing.
	trace *execTrace
}

// initSlots fills the extra-worker token pool.
func (f *forest) initSlots() {
	if f.par > 1 {
		f.slots = make(chan struct{}, f.par-1)
		for i := 0; i < f.par-1; i++ {
			f.slots <- struct{}{}
		}
	}
}

// tryWorker claims an extra-worker token without blocking.
func (f *forest) tryWorker() bool {
	select {
	case <-f.slots:
		return true
	default:
		return false
	}
}

func (f *forest) putWorker() { f.slots <- struct{}{} }

// parMin is the live-row count below which loops stay serial.
func (f *forest) parMin() int {
	if f.minPar > 0 {
		return f.minPar
	}
	return parThreshold
}

// morselSize is the rows per parallel work unit.
func (f *forest) morselSize() int {
	if f.morsel > 0 {
		return f.morsel
	}
	return morselRows
}

// morselWordSize is the (word-aligned) morsel in 64-row liveness words.
func (f *forest) morselWordSize() int {
	return max(1, f.morselSize()/64)
}

// newForest builds the evaluation state for a schedule's atoms, whose
// distinct variables are vars, against sn: one atom view plus a bitmap
// per node seeded from the view's liveness (a snapshot version's
// deleted rows start dead). The bitmaps come from one slab allocation
// across all nodes.
func newForest(atoms []patom, vars [][]int, sn *relstr.Snapshot, par int) *forest {
	f := &forest{nodes: make([]execNode, len(atoms)), par: par}
	total := 0
	for i, a := range atoms {
		v := atomView(sn, a)
		rows := v.Rows()
		f.nodes[i] = execNode{rows: rows, vars: vars[i], view: v, live: v.Len()}
		total += (len(rows) + 63) / 64
	}
	slab := make([]uint64, total)
	off := 0
	for i := range f.nodes {
		n := &f.nodes[i]
		w := (len(n.rows) + 63) / 64
		n.words = slab[off : off+w : off+w]
		off += w
		if live := n.view.Live(); live != nil {
			copy(n.words, live)
		} else {
			fillAlive(n.words, len(n.rows))
		}
	}
	f.initSlots()
	return f
}

// anyEmpty reports whether some node lost all rows (empty answer set).
func (f *forest) anyEmpty() bool {
	for i := range f.nodes {
		if f.nodes[i].live == 0 {
			return true
		}
	}
	return false
}

// --- semijoin reduction ------------------------------------------------

// semijoin applies one scheduled reduction step over the bitmaps:
// target rows with no alive source partner on the aligned columns die.
// Every step has at least one key column: a join tree is one connected
// component, so a child shares a variable with its parent.
// A key whose first column holds small non-negative ints runs the
// dense kernel (dense.go): one serial pass summarises the source's
// live keys — a bitset for one column, each target row then tested
// with one word read; groups by the first column for more, each target
// row then a scan or binary search of its group. Every other step probes
// through the source view's index cache. Large
// targets fan their word ranges out in morsels to as many extra
// workers as the budget has free — the caller always works too, so a
// step never stalls on an exhausted budget. Both kernels kill exactly
// the rows with no alive partner, so the bitmaps after the step do not
// depend on which one ran.
//
// A weighted step (see weighSchedule) is the counting DP's step in the
// same loop: its one-column summary sums the source's live weights per
// key (keySums), and its index probe sums the weights along the chain
// (a dead row weighs 0, so no liveness test). Each live target row's
// weight is multiplied by its sum, and a row whose sum is 0 dies —
// exactly the rows the Boolean step kills. semijoin reports whether
// some row's sum or product overflowed uint64: such a row stays live
// at weight 0 until settle, since only a row that survives every step
// of its node makes the count overflow.
func (f *forest) semijoin(st sjStep) (overflowed bool) {
	t, s := &f.nodes[st.target], &f.nodes[st.source]
	if t.live == 0 {
		return false
	}
	var nt *nodeTraceCtr
	if tr := f.trace; tr != nil {
		nt = &tr.nodes[st.target]
		nt.passes.Add(1)
		nt.in.Add(int64(t.live))
		defer func() { nt.out.Add(int64(t.live)) }()
	}
	if s.live == 0 {
		t.clearAll()
		return false
	}
	f.probes.Add(uint64(t.live))
	if nt != nil {
		nt.probes.Add(uint64(t.live))
	}
	k := sjKernel{tCols: st.tCols}
	buf := keyBufs.get()
	defer keyBufs.put(buf)
	switch limit := bitLimit(t.live, s.live); {
	case st.weighted:
		k.wt, k.sw = t.wt, s.wt
		if len(st.sCols) == 1 {
			k.sums, k.ovf, k.dense = keySums(s, st.sCols[0], sumLimit(t.live, s.live), s.wt, buf)
		}
	case len(st.sCols) == 1:
		k.keys, k.dense = keySet(s, st.sCols[0], limit, buf)
	default:
		k.groups, k.dense = groupKeys(s, st.sCols, limit, buf)
	}
	if k.dense {
		if nt != nil {
			nt.dense.Add(1)
		}
	} else {
		k.ix = f.index(s, st.sCols, nt)
		k.full = s.live == len(s.rows) // skip liveness checks while the source is unfiltered
	}
	nw := len(t.words)
	if f.par <= 1 || t.live < f.parMin() {
		killed, over := k.run(t, s, 0, nw)
		t.live -= killed
		return over
	}
	mw := f.morselWordSize()
	chunks := (nw + mw - 1) / mw
	if tr := f.trace; tr != nil {
		tr.addChunks(chunks)
	}
	// The workers' shared state, the kernel included, in one allocation.
	sh := &struct {
		k            sjKernel
		next, killed atomic.Int64
		over         atomic.Bool
		wg           sync.WaitGroup
	}{k: k}
	work := func() int {
		n := 0
		for {
			c := int(sh.next.Add(1) - 1)
			if c >= chunks {
				return n
			}
			m, over := sh.k.run(t, s, c*mw, min((c+1)*mw, nw))
			n += m
			if over {
				sh.over.Store(true)
			}
		}
	}
	for i := 1; i < chunks && f.tryWorker(); i++ {
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			defer f.putWorker()
			if tr := f.trace; tr != nil {
				start := time.Now()
				defer func() { tr.addWorker(time.Since(start)) }()
			}
			sh.killed.Add(int64(work()))
		}()
	}
	mine := work()
	sh.wg.Wait()
	t.live -= mine + int(sh.killed.Load())
	return sh.over.Load()
}

// settle closes the steps into a weighted node: a live row its steps
// left at weight 0 overflowed, which marks the forest's count
// overflowed, and takes weight 1, so its parents still find it as a
// partner and liveness stays exactly the Boolean pass's.
func (f *forest) settle(n *execNode) {
	for w, word := range n.words {
		for ; word != 0; word &= word - 1 {
			if id := w<<6 | bits.TrailingZeros64(word); n.wt[id] == 0 {
				n.wt[id] = 1
				f.overflow.Store(true)
			}
		}
	}
}

// index returns the source view's index keyed on sCols, building it on
// first use and accounting the build to the forest and to the traced
// node nt (nil when untraced).
func (f *forest) index(s *execNode, sCols []int, nt *nodeTraceCtr) *relstr.Index {
	ix, built := s.view.Index(sCols)
	if built {
		f.builds.Add(1)
		if nt != nil {
			nt.builds.Add(1)
		}
	}
	return ix
}

// sjKernel is one semijoin step's resolved probe: the dense bitset of
// the source's live key values or their groups, or the source view's
// index; for a weighted step, the per-key weight sums, or the index and
// the source's weights.
type sjKernel struct {
	dense  bool
	keys   []uint64  // dense, one column: bit v set ⇔ some live source row has key v
	groups keyGroups // dense, more columns
	ix     *relstr.Index
	full   bool // index: the source is unfiltered, skip its liveness
	tCols  []int

	wt, sw    []uint64 // weighted: the target's and the source's weights (wt nil ⇔ Boolean)
	sums, ovf []uint64 // weighted, dense: see keySums
}

// run applies the step to the live target rows of the word range
// [lo, hi) and returns the number of kills and whether some weight
// overflowed.
func (k *sjKernel) run(t, s *execNode, lo, hi int) (killed int, over bool) {
	if k.wt == nil {
		return k.filter(t, s, lo, hi), false
	}
	for w := lo; w < hi; w++ {
		for word := t.words[w]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			id := w<<6 | b
			sum, ok := k.sum(t.rows[id])
			if ok && sum == 0 {
				t.words[w] &^= 1 << uint(b)
				k.wt[id] = 0
				killed++
				continue
			}
			if ok {
				k.wt[id], ok = mulU64(k.wt[id], sum)
			}
			if !ok {
				k.wt[id], over = 0, true
			}
		}
	}
	return killed, over
}

// sum is the summed weight of row's source partners, and false when it
// overflows uint64.
func (k *sjKernel) sum(row []int) (uint64, bool) {
	if k.dense {
		// A key out of range (negative ones wrap) has no partner.
		v := uint(row[k.tCols[0]])
		if v >= uint(len(k.sums)) {
			return 0, true
		}
		return k.sums[v], v>>6 >= uint(len(k.ovf)) || k.ovf[v>>6]&(1<<(v&63)) == 0
	}
	var sum uint64
	ok := true
	for sid := k.ix.First(row, k.tCols); sid >= 0 && ok; sid = k.ix.Next(sid, row, k.tCols) {
		sum, ok = addU64(sum, k.sw[sid])
	}
	return sum, ok
}

// filter tests the live target rows of the word range [lo, hi),
// clearing the bits of rows with no alive partner, and returns the
// number of kills. Ranges are word-aligned, so concurrent workers on
// disjoint ranges never write the same word.
func (k sjKernel) filter(t, s *execNode, lo, hi int) int {
	killed := 0
	if k.dense && len(k.tCols) == 1 { // the hot loop: one word read per row
		col, n := k.tCols[0], uint(len(k.keys))<<6
		for w := lo; w < hi; w++ {
			for word := t.words[w]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				// A negative key wraps to a huge uint and misses, as it must.
				if v := uint(t.rows[w<<6|b][col]); v >= n || k.keys[v>>6]&(1<<(v&63)) == 0 {
					t.words[w] &^= 1 << uint(b)
					killed++
				}
			}
		}
		return killed
	}
	for w := lo; w < hi; w++ {
		for word := t.words[w]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			row := t.rows[w<<6|b]
			ok := k.dense && k.groups.has(row, k.tCols)
			if !k.dense {
				for sid := k.ix.First(row, k.tCols); sid >= 0; sid = k.ix.Next(sid, row, k.tCols) {
					if ok = k.full || s.alive(sid); ok {
						break
					}
				}
			}
			if !ok {
				t.words[w] &^= 1 << uint(b)
				killed++
			}
		}
	}
	return killed
}

// subtrees runs the bottom-up pass of the subtrees rooted at ids,
// spawning a goroutine per subtree only while an extra-worker token is
// free (the rest, and always ids[0], run on the caller, so nested
// fan-outs stay within the global budget). Every subtree is reduced
// regardless of failures; the first error (in ids order) is returned,
// so the outcome is deterministic.
func (f *forest) subtrees(ctx context.Context, sched *schedule, ids []int) error {
	if f.par <= 1 || len(ids) <= 1 {
		for _, i := range ids {
			if err := f.down(ctx, sched, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for k := 1; k < len(ids); k++ {
		if !f.tryWorker() {
			errs[k] = f.down(ctx, sched, ids[k])
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.putWorker()
			if tr := f.trace; tr != nil {
				start := time.Now()
				defer func() { tr.addWorker(time.Since(start)) }()
			}
			errs[k] = f.down(ctx, sched, ids[k])
		}()
	}
	errs[0] = f.down(ctx, sched, ids[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runDown executes the bottom-up pass, the forest's one reduction
// pass. It leaves every live row extending to an assignment of its
// subtree — each live root row to one of its tree — and empties a root
// exactly when its tree has no assignment. Every tree is reduced, even
// after another one emptied. A reader roots the pass at the node it
// starts from (the schedule it passes): the search at the plan's roots
// (Plan.reduce), a ranked read at its first visits (streamRanked), a
// count at the node its count starts from (Plan.Count); only that
// node's live rows are then exactly the rows that extend. A counting
// schedule's weighted nodes leave the pass with their weights: each
// live row's number of extensions into the weighted part of its
// subtree. Independent sibling subtrees run concurrently on a parallel
// forest; a node's steps start only after every child subtree
// finished.
func (f *forest) runDown(ctx context.Context, sched *schedule) error {
	start := f.clock()
	err := f.subtrees(ctx, sched, sched.roots)
	f.lap("semijoin-down", start)
	return err
}

// down runs the bottom-up pass of i's subtree: children first (in
// parallel when the budget allows), then i's own reduction steps —
// which share a target and therefore stay ordered, each
// morsel-parallel inside. A weighted node takes its weights after its
// Boolean steps, which the schedule puts first, and settles any
// overflow once its last step ran. A serial pass stops at the first
// child left empty and empties i: i's root then empties too, so the
// skipped subtrees change no answer.
func (f *forest) down(ctx context.Context, sched *schedule, i int) error {
	kids := sched.children[i]
	if f.par <= 1 || len(kids) <= 1 {
		for _, c := range kids {
			if err := f.down(ctx, sched, c); err != nil {
				return err
			}
			if f.nodes[c].live == 0 {
				f.nodes[i].clearAll()
				return nil
			}
		}
	} else if err := f.subtrees(ctx, sched, kids); err != nil {
		return err
	}
	if err := cqerr.Check(ctx); err != nil {
		return err
	}
	t, over := &f.nodes[i], false
	for _, st := range sched.downOf[i] {
		if st.weighted {
			t.weigh()
		}
		over = f.semijoin(st) || over
	}
	if sched.weighted != nil && sched.weighted[i] {
		t.weigh() // a node with no weighted step into it weighs 1 per live row
		if over {
			f.settle(t)
		}
	}
	return nil
}
