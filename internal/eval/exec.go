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
// indexes (dense.go). The answers are then enumerated by the bag search
// over the reduced forest's live rows (bags.go, forestRun).
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
// in-place filtering, and the view whose index cache serves probes.
type execNode struct {
	rows  [][]int
	vars  []int
	view  *relstr.View
	words []uint64 // bit id set ⇔ row id alive
	live  int
}

func (n *execNode) alive(id int32) bool {
	return n.words[id>>6]&(1<<(uint(id)&63)) != 0
}

func (n *execNode) clearAll() {
	for w := range n.words {
		n.words[w] = 0
	}
	n.live = 0
}

// aliveRows materialises the surviving rows (headers shared with the
// view; rows are never mutated downstream).
func (n *execNode) aliveRows() [][]int {
	out := make([][]int, 0, n.live)
	for w, word := range n.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, n.rows[w<<6|b])
		}
	}
	return out
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
func (f *forest) semijoin(st sjStep) {
	t, s := &f.nodes[st.target], &f.nodes[st.source]
	if t.live == 0 {
		return
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
		return
	}
	if len(st.tCols) == 0 {
		return // no shared variables and the source is non-empty
	}
	f.probes.Add(uint64(t.live))
	if nt != nil {
		nt.probes.Add(uint64(t.live))
	}
	k := sjKernel{tCols: st.tCols}
	buf := keyBufs.get()
	defer keyBufs.put(buf)
	if limit := bitLimit(t.live, s.live); len(st.sCols) == 1 {
		k.keys, k.dense = keySet(s, st.sCols[0], limit, buf)
	} else {
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
		t.live -= k.filter(t, s, 0, nw)
		return
	}
	mw := f.morselWordSize()
	chunks := (nw + mw - 1) / mw
	if tr := f.trace; tr != nil {
		tr.addChunks(chunks)
	}
	var next, killed atomic.Int64
	var wg sync.WaitGroup
	kern := k // never reassigned: the escaping closure copies it, k stays on the stack
	work := func() int {
		n := 0
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return n
			}
			n += kern.filter(t, s, c*mw, min((c+1)*mw, nw))
		}
	}
	for i := 1; i < chunks && f.tryWorker(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.putWorker()
			if tr := f.trace; tr != nil {
				start := time.Now()
				defer func() { tr.addWorker(time.Since(start)) }()
			}
			killed.Add(int64(work()))
		}()
	}
	mine := work()
	wg.Wait()
	t.live -= mine + int(killed.Load())
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
// index.
type sjKernel struct {
	dense  bool
	keys   []uint64  // dense, one column: bit v set ⇔ some live source row has key v
	groups keyGroups // dense, more columns
	ix     *relstr.Index
	full   bool // index: the source is unfiltered, skip its liveness
	tCols  []int
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
// node's live rows are then exactly the rows that extend. Independent
// sibling subtrees run concurrently on a parallel forest; a node's
// steps start only after every child subtree finished.
func (f *forest) runDown(ctx context.Context, sched *schedule) error {
	start := f.clock()
	err := f.subtrees(ctx, sched, sched.roots)
	f.lap("semijoin-down", start)
	return err
}

// down runs the bottom-up pass of i's subtree: children first (in
// parallel when the budget allows), then i's own reduction steps —
// which share a target and therefore stay ordered, each
// morsel-parallel inside. A serial pass stops at the first child left
// empty and empties i: i's root then empties too, so the skipped
// subtrees change no answer.
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
	for _, st := range sched.downOf[i] {
		f.semijoin(st)
	}
	return nil
}
