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

// The unified, morsel-driven schedule executor. One forest replays a
// prepare-time schedule against any Source (plain structure or
// snapshot): per-call row liveness
// is a bitmap per node (never in-place row filtering, so backing rows
// stay shared and immutable), semijoin steps probe backend-owned hash
// indexes, and the solve phase joins the surviving rows through the
// scratch arena exactly as scheduled.
//
// Parallelism is morsel-driven: the probe loop of a semijoin step, the
// accumulator side of a solve join, and the head projection each split
// their rows into fixed-size chunks (morselRows) claimed from an atomic
// counter by up to `par` workers; the two Yannakakis passes additionally
// fan out across independent sibling subtrees. Determinism is by
// construction: bitmap clearing is per-row independent, parallel join
// outputs are concatenated in chunk order (identical to the serial row
// order), and projections dedup into chunk-local sets merged in chunk
// order before the final sort — so answers, their order, and the
// liveness state after every pass are byte-identical to a serial run.

const (
	// morselRows is the fixed number of rows in one parallel work unit.
	// Bitmap morsels are word-aligned (64-row granularity) so
	// concurrent workers never write the same liveness word.
	morselRows = 1024
	// parThreshold is the minimum live-row count worth fanning out; a
	// smaller loop runs serially even on a parallel forest.
	parThreshold = 2 * morselRows
)

// execNode is one join-forest node under the unified executor: the
// backend-owned view rows, the call-local liveness bitmap that stands
// in for in-place filtering, and the node's index provider.
type execNode struct {
	rows  [][]int
	vars  []int
	ix    Indexer
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
// backend; rows are never mutated downstream).
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

// allAlive returns an n-row bitmap with every row live.
func allAlive(n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	fillAlive(words, n)
	return words
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

// forest is the per-call state of one evaluation: the nodes, the worker
// budget, the main scratch, and the pool of extra per-worker scratches
// the parallel solve phase allocates rows from. Index-build and probe
// counters are atomics (parallel sibling steps update them) folded into
// the scratch stats at release.
type forest struct {
	nodes []execNode
	par   int
	sc    *scratch

	// slots holds the par-1 extra-worker tokens of this evaluation.
	// Every fan-out — sibling subtrees, sibling steps, morsels —
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

	wmu    sync.Mutex
	extras []*scratch // idle worker scratches, reusable within the call

	builds atomic.Uint64
	probes atomic.Uint64

	// trace is the call's ANALYZE frame, nil unless the caller opted
	// in (EvalTraceOn/PrepareCountTrace). Every hot-path hook is a
	// single nil check — the trace-off path records nothing and
	// allocates nothing.
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

// newForest builds the evaluation state for a schedule's atoms against
// src: one backend view plus an all-alive bitmap per node. The bitmaps
// come from one slab allocation across all nodes.
func newForest(atoms []patom, src Source, sc *scratch, par int) *forest {
	f := &forest{nodes: make([]execNode, len(atoms)), sc: sc, par: par}
	total := 0
	for i, a := range atoms {
		rows, ix := src.Node(a)
		f.nodes[i] = execNode{rows: rows, vars: a.distinctVars(), ix: ix, live: len(rows)}
		total += (len(rows) + 63) / 64
	}
	slab := make([]uint64, total)
	off := 0
	for i := range f.nodes {
		n := f.nodes[i].live
		w := (n + 63) / 64
		words := slab[off : off+w : off+w]
		off += w
		fillAlive(words, n)
		f.nodes[i].words = words
	}
	f.initSlots()
	return f
}

// release folds the forest's counters and every worker scratch's stats
// into the main scratch and returns the workers to the global pool.
// Call once, after the last row allocated from a worker arena has been
// copied out (i.e. at the very end of the evaluation).
func (f *forest) release() {
	f.sc.stats.builds += f.builds.Load()
	f.sc.stats.probes += f.probes.Load()
	for _, s := range f.extras {
		f.sc.stats.builds += s.stats.builds
		f.sc.stats.probes += s.stats.probes
		s.stats = opStats{}
		putScratch(s)
	}
	f.extras = nil
}

// grabScratch hands a worker its own arena — reused across parallel
// stages of the same call (appending to an arena never invalidates
// rows already allocated from it), returned to the global pool only at
// release.
func (f *forest) grabScratch() *scratch {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	if n := len(f.extras); n > 0 {
		s := f.extras[n-1]
		f.extras = f.extras[:n-1]
		return s
	}
	return getScratch()
}

func (f *forest) yieldScratch(s *scratch) {
	f.wmu.Lock()
	f.extras = append(f.extras, s)
	f.wmu.Unlock()
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
// The probe runs through the source's Indexer (a snapshot's persistent
// cache, or a per-call memo). Large targets fan their word ranges out
// in morsels to as many extra workers as the budget has free — the
// caller always works too, so a step never stalls on an exhausted
// budget.
func (f *forest) semijoin(st sjStep) {
	t, s := &f.nodes[st.target], &f.nodes[st.source]
	if t.live == 0 {
		return
	}
	if tr := f.trace; tr != nil {
		nt := &tr.nodes[st.target]
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
	ix, built := s.ix.Index(st.sCols)
	if built {
		f.builds.Add(1)
	}
	f.probes.Add(uint64(t.live))
	if tr := f.trace; tr != nil {
		nt := &tr.nodes[st.target]
		if built {
			nt.builds.Add(1)
		}
		nt.probes.Add(uint64(t.live))
	}
	full := s.live == len(s.rows) // skip liveness checks while the source is unfiltered
	nw := len(t.words)
	if f.par <= 1 || t.live < f.parMin() {
		t.live -= semijoinRange(t, s, ix, st.tCols, full, 0, nw)
		return
	}
	mw := f.morselWordSize()
	chunks := (nw + mw - 1) / mw
	if tr := f.trace; tr != nil {
		tr.addChunks(chunks)
	}
	var next, killed atomic.Int64
	var wg sync.WaitGroup
	work := func() int {
		n := 0
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return n
			}
			n += semijoinRange(t, s, ix, st.tCols, full, c*mw, min((c+1)*mw, nw))
		}
	}
	for k := 1; k < chunks && f.tryWorker(); k++ {
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

// semijoinRange probes the target rows of the word range [lo, hi),
// clearing the bits of rows with no alive partner, and returns the
// number of kills. Ranges are word-aligned, so concurrent workers on
// disjoint ranges never write the same word.
func semijoinRange(t, s *execNode, ix *relstr.Index, tCols []int, full bool, lo, hi int) int {
	killed := 0
	for w := lo; w < hi; w++ {
		word := t.words[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			row := t.rows[w<<6|b]
			ok := false
			for sid := ix.First(row, tCols); sid >= 0; sid = ix.Next(sid, row, tCols) {
				if full || s.alive(sid) {
					ok = true
					break
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

// fanOut runs fns — independent units of tree-level work — spawning a
// goroutine per fn only while an extra-worker token is free (the rest,
// and always fns[0], run on the caller, so nested fan-outs stay within
// the global budget). Every fn runs regardless of failures; the first
// error (in fns order) is returned, so the outcome is deterministic.
func (f *forest) fanOut(fns []func() error) error {
	if f.par <= 1 || len(fns) <= 1 {
		for _, fn := range fns {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i := 1; i < len(fns); i++ {
		if f.tryWorker() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer f.putWorker()
				if tr := f.trace; tr != nil {
					start := time.Now()
					defer func() { tr.addWorker(time.Since(start)) }()
				}
				errs[i] = fns[i]()
			}()
		} else {
			errs[i] = fns[i]()
		}
	}
	errs[0] = fns[0]()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runPasses executes the schedule's two reduction passes over the
// bitmaps. Independent sibling subtrees run concurrently on a parallel
// forest: in the bottom-up pass a node's steps only start after every
// child subtree finished, and in the top-down pass the steps into
// distinct children are themselves independent.
func (f *forest) runPasses(ctx context.Context, sched *schedule) error {
	var start time.Time
	if f.trace != nil {
		start = time.Now()
	}
	roots := make([]func() error, len(sched.roots))
	for i, r := range sched.roots {
		roots[i] = func() error { return f.down(ctx, sched, r) }
	}
	if err := f.fanOut(roots); err != nil {
		return err
	}
	if tr := f.trace; tr != nil {
		tr.phase("semijoin-down", time.Since(start))
		start = time.Now()
	}
	for i, r := range sched.roots {
		roots[i] = func() error { return f.up(ctx, sched, r) }
	}
	err := f.fanOut(roots)
	if tr := f.trace; tr != nil {
		tr.phase("semijoin-up", time.Since(start))
	}
	return err
}

// down runs the bottom-up pass of i's subtree: children first (in
// parallel when the budget allows), then i's own reduction steps —
// which share a target and therefore stay ordered, each
// morsel-parallel inside.
func (f *forest) down(ctx context.Context, sched *schedule, i int) error {
	kids := sched.children[i]
	fns := make([]func() error, len(kids))
	for k, c := range kids {
		fns[k] = func() error { return f.down(ctx, sched, c) }
	}
	if err := f.fanOut(fns); err != nil {
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

// up runs the top-down pass of i's subtree: i's steps filter distinct
// children, so they fan out as sibling work; then the children's
// subtrees recurse.
func (f *forest) up(ctx context.Context, sched *schedule, i int) error {
	if err := cqerr.Check(ctx); err != nil {
		return err
	}
	steps := sched.upOf[i]
	if f.par > 1 && len(steps) > 1 {
		fns := make([]func() error, len(steps))
		for k, st := range steps {
			fns[k] = func() error { f.semijoin(st); return nil }
		}
		if err := f.fanOut(fns); err != nil {
			return err
		}
	} else {
		for _, st := range steps {
			f.semijoin(st)
		}
	}
	kids := sched.children[i]
	fns := make([]func() error, len(kids))
	for k, c := range kids {
		fns[k] = func() error { return f.up(ctx, sched, c) }
	}
	return f.fanOut(fns)
}

// runBool executes only the leaves→roots pass, reporting answer
// existence (the Boolean fast path). Node order stays serial so the
// emptiness short-circuit fires as early as a serial run would; the
// per-step probe loops still fan out.
func (f *forest) runBool(ctx context.Context, sched *schedule) (bool, error) {
	for _, i := range sched.postorder {
		if err := cqerr.Check(ctx); err != nil {
			return false, err
		}
		for _, st := range sched.downOf[i] {
			f.semijoin(st)
		}
		if f.nodes[i].live == 0 {
			return false, nil
		}
	}
	return true, nil
}

// --- solve phase -------------------------------------------------------

// solve executes the scheduled bottom-up join, cross product and head
// projection over a forest that already went through runPasses (callers
// must also have verified every node keeps at least one row — the skip
// analysis relies on it). empty reports an empty answer set discovered
// mid-way.
func (f *forest) solve(ctx context.Context, sched *schedule) (_ Answers, empty bool, _ error) {
	if sched.directNode != -1 {
		rows := [][]int{{}} // unitNode: the Boolean unit relation
		if sched.directNode >= 0 {
			rows = f.nodes[sched.directNode].aliveRows()
		}
		return f.projectHead(rows, len(sched.head), sched.directCols), false, nil
	}
	var start time.Time
	if f.trace != nil {
		start = time.Now()
	}
	upRel := make([]rel, len(f.nodes))
	for _, i := range sched.postorder {
		if !sched.needed[i] {
			continue
		}
		if err := cqerr.Check(ctx); err != nil {
			return nil, false, err
		}
		acc := rel{vars: f.nodes[i].vars, rows: f.nodes[i].aliveRows()}
		for _, st := range sched.nodes[i].joins {
			if st.skip {
				continue
			}
			acc = f.join(acc, upRel[st.child], st)
		}
		if sched.nodes[i].projCols != nil {
			acc = f.sc.project(acc, sched.nodes[i].projCols, sched.nodes[i].vars)
		}
		upRel[i] = acc
	}
	total := rel{vars: nil, rows: [][]int{{}}}
	for _, st := range sched.rootJoins {
		if st.skip {
			continue
		}
		if err := cqerr.Check(ctx); err != nil {
			return nil, false, err
		}
		if len(upRel[st.child].rows) == 0 {
			return Answers{}, true, nil
		}
		if len(total.vars) == 0 && len(total.rows) == 1 {
			// Cross product with the unit relation: adopt the component's
			// relation as-is (outVars is exactly its variable list).
			total = rel{vars: st.outVars, rows: upRel[st.child].rows}
			continue
		}
		total = f.join(total, upRel[st.child], st)
	}
	if tr := f.trace; tr != nil {
		tr.phase("join", time.Since(start))
	}
	return f.projectHead(total.rows, len(sched.head), sched.headCols), false, nil
}

// join is the scheduled natural join, morsel-parallel when the
// accumulator is large: the probe index is built once up front, the
// accumulator's rows are claimed in fixed-size chunks by workers with
// their own scratch arenas, and the per-chunk outputs are concatenated
// in chunk order — the exact row order a serial run produces.
func (f *forest) join(l, r rel, st jStep) rel {
	if f.par <= 1 || len(l.rows) < f.parMin() || len(st.rCols) == 0 || len(r.rows) == 0 {
		// Small inputs, keyless cross products (output-dominated) and
		// empty probe sides stay serial.
		return f.sc.join(l, r, st)
	}
	out := rel{vars: st.outVars}
	ix := f.sc.buildIndex(r.rows, st.rCols)
	f.sc.stats.probes += uint64(len(l.rows))
	mr := f.morselSize()
	chunks := (len(l.rows) + mr - 1) / mr
	if tr := f.trace; tr != nil {
		tr.addChunks(chunks)
	}
	parts := make([][][]int, chunks)
	w := len(l.vars) + len(st.rExtra)
	var next atomic.Int64
	var wg sync.WaitGroup
	work := func(sc *scratch) {
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			lo, hi := c*mr, min((c+1)*mr, len(l.rows))
			var rows [][]int
			for _, lrow := range l.rows[lo:hi] {
				for id := ix.lookup(lrow, st.lCols); id >= 0; id = ix.nextMatch(id, lrow, st.lCols) {
					rrow := ix.rows[id]
					vals := sc.alloc(w)
					copy(vals, lrow)
					for j, col := range st.rExtra {
						vals[len(lrow)+j] = rrow[col]
					}
					rows = append(rows, vals)
				}
			}
			parts[c] = rows
		}
	}
	for k := 1; k < chunks && f.tryWorker(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.putWorker()
			if tr := f.trace; tr != nil {
				start := time.Now()
				defer func() { tr.addWorker(time.Since(start)) }()
			}
			sc := f.grabScratch()
			defer f.yieldScratch(sc)
			work(sc)
		}()
	}
	// The caller joins with its own arena: never the main scratch —
	// that holds the live probe index tables.
	sc := f.grabScratch()
	work(sc)
	wg.Wait()
	f.yieldScratch(sc)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out.rows = make([][]int, 0, n)
	for _, p := range parts {
		out.rows = append(out.rows, p...)
	}
	return out
}

// projectHead projects rows onto the head (the head may repeat
// variables), deduplicating via integer-hashed tuple sets and sorting.
// Parallel runs dedup into chunk-local sets merged in chunk order; the
// final sort makes the result identical either way.
func (f *forest) projectHead(rows [][]int, width int, cols []int) Answers {
	var start time.Time
	if f.trace != nil {
		start = time.Now()
	}
	if f.par <= 1 || len(rows) < f.parMin() {
		ans := projectHeadSerial(rows, width, cols)
		if tr := f.trace; tr != nil {
			// Serial runs fold the dedup into the projection pass.
			tr.phase("project", time.Since(start))
			tr.phase("dedup", 0)
		}
		return ans
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
		for {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			var seen relstr.TupleSet
			for _, row := range rows[c*mr : min((c+1)*mr, len(rows))] {
				vals := make(relstr.Tuple, width)
				for i, j := range cols {
					vals[i] = row[j]
				}
				seen.Add(vals)
			}
			parts[c] = &seen
		}
	}
	for k := 1; k < chunks && f.tryWorker(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.putWorker()
			if tr := f.trace; tr != nil {
				t0 := time.Now()
				defer func() { tr.addWorker(time.Since(t0)) }()
			}
			work()
		}()
	}
	work()
	wg.Wait()
	var mid time.Time
	if f.trace != nil {
		mid = time.Now()
	}
	var seen relstr.TupleSet
	for _, p := range parts {
		for _, t := range p.Rows() {
			seen.Add(t)
		}
	}
	ans := sortAnswers(append([]relstr.Tuple{}, seen.Rows()...))
	if tr := f.trace; tr != nil {
		tr.phase("project", mid.Sub(start))
		tr.phase("dedup", time.Since(mid))
	}
	return ans
}

// projectHeadSerial is the serial head projection.
func projectHeadSerial(rows [][]int, width int, cols []int) Answers {
	var seen relstr.TupleSet
	for _, row := range rows {
		vals := make(relstr.Tuple, width)
		for i, j := range cols {
			vals[i] = row[j]
		}
		seen.Add(vals)
	}
	return sortAnswers(append([]relstr.Tuple{}, seen.Rows()...))
}

// --- full pipelines ----------------------------------------------------

// evalForest runs the complete Yannakakis pipeline over a fresh forest:
// both reduction passes, the emptiness short-circuit, then the
// scheduled solve.
func evalForest(ctx context.Context, sched *schedule, f *forest) (Answers, error) {
	if err := f.runPasses(ctx, sched); err != nil {
		return nil, err
	}
	if f.anyEmpty() {
		return Answers{}, nil
	}
	ans, empty, err := f.solve(ctx, sched)
	if err != nil {
		return nil, err
	}
	if empty {
		return Answers{}, nil
	}
	return ans, nil
}

// reduce rebuilds a structure holding only the database tuples backing
// assignment rows that survived runPasses. Answers of the query on the
// reduced structure equal those on the original; empty reports that
// some relation lost every row (empty answer set).
func (f *forest) reduce(atoms []patom, src *relstr.Structure) (_ *relstr.Structure, empty bool) {
	out := src.CloneSchema()
	for i, a := range atoms {
		n := &f.nodes[i]
		if n.live == 0 {
			return nil, true
		}
		// Rebuild the db tuples backing each surviving assignment row:
		// position j of the tuple holds the row value of the variable
		// at position j (repeated variables repeat the value).
		varIdx := make([]int, len(a.args))
		for j, v := range a.args {
			varIdx[j] = indexOf(n.vars, v)
		}
		t := make([]int, len(a.args))
		for w, word := range n.words {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				word &= word - 1
				row := n.rows[w<<6|b]
				for j, vi := range varIdx {
					t[j] = row[vi]
				}
				out.Add(a.rel, t...)
			}
		}
	}
	return out, false
}
