package eval

import (
	"context"
	"iter"
	"slices"
	"sync/atomic"
	"time"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/obs"
	"cqapprox/internal/relstr"
)

// PlanMode identifies the evaluation strategy a Plan selected.
type PlanMode int

const (
	// PlanYannakakis: the query is acyclic; evaluation runs the
	// semijoin pipeline over the precomputed join tree, O(|D|·|Q|)
	// plus output cost.
	PlanYannakakis PlanMode = iota
	// PlanBags: the query is cyclic; evaluation is a first-hit search
	// over a tree decomposition, memoised on separator values (bags.go).
	PlanBags
)

func (m PlanMode) String() string {
	switch m {
	case PlanYannakakis:
		return "yannakakis"
	case PlanBags:
		return "bags"
	default:
		return "unknown"
	}
}

// Plan is a compiled evaluation strategy for one query, reusable across
// databases and safe for concurrent use (all fields are immutable after
// NewPlan). The static work — tableau construction, GYO join-tree
// computation, acyclicity analysis — happens once in NewPlan; the four
// read verbs (Eval, Bool, Stream, Count) only do per-database work.
type Plan struct {
	q    *cq.Query
	tb   *cq.Tableau
	mode PlanMode
	// Yannakakis mode only:
	atoms  []patom
	vars   [][]int // per atom, its distinct variables (the view columns)
	jt     hypergraph.JoinTree
	sched  *schedule      // prepare-time index/probe program, reused per Eval
	csched *countSchedule // prepare-time counting classification and pass (see count.go)
	// ranked is the canonical lex-connex visit program (the head's
	// natural ascending key), nil when that order is not tractable on
	// this forest; rankedIDs is its key-id sequence, the cache key
	// rankProgramForSpec compares against. See rank.go.
	ranked    *rankProgram
	rankedIDs []int

	// The search program every enumeration runs: over the
	// decomposition for bag plans, over the join forest (one bag per
	// node) for acyclic ones.
	bags *bagPlan

	stats planStats
}

// planStats are the plan's cumulative indexed-runtime counters,
// updated once per evaluation (not per probe) and shared across every
// caller of a cached PreparedQuery.
type planStats struct {
	builds   atomic.Uint64
	probes   atomic.Uint64
	evals    atomic.Uint64
	parEvals atomic.Uint64

	exactCounts   atomic.Uint64
	estCounts     atomic.Uint64
	sampleBatches atomic.Uint64

	rankedEvals   atomic.Uint64
	rankFallbacks atomic.Uint64

	incrEvals     atomic.Uint64
	incrFallbacks atomic.Uint64
}

// IndexStats is a snapshot of the indexed runtime's counters for one
// plan: how many per-relation hash indexes its evaluations built, how
// many rows were tested against a probe source (index probe or dense
// key summary), how many evaluations (Eval/Bool/Stream reductions)
// ran, and how many of those ran with a parallel worker budget. The count counters track the answer
// counting subsystem: counts answered exactly (DP, dedup or
// enumeration), counts answered by the sampling estimator, and the
// median-of-means batches those estimates ran. The rank counters track
// ordered evaluation: calls that streamed through a lex-connex visit
// program, and calls whose key was untractable and fell back to
// eval+sort+truncate. The incremental counters track delta-aware
// maintenance (incr.go): IncrState.Apply calls that propagated a delta
// through the join forest, and Apply calls that fell back to a full
// re-evaluation (unsupported plan, oversized delta, stale state).
type IndexStats struct {
	IndexBuilds   uint64
	IndexProbes   uint64
	Evals         uint64
	ParallelEvals uint64

	ExactCounts     uint64
	EstimatedCounts uint64
	SampleBatches   uint64

	RankedEvals   uint64
	RankFallbacks uint64

	IncrementalEvals uint64
	IncrFallbacks    uint64
}

// IndexStats returns the plan's cumulative indexed-runtime counters.
func (p *Plan) IndexStats() IndexStats {
	return IndexStats{
		IndexBuilds:      p.stats.builds.Load(),
		IndexProbes:      p.stats.probes.Load(),
		Evals:            p.stats.evals.Load(),
		ParallelEvals:    p.stats.parEvals.Load(),
		ExactCounts:      p.stats.exactCounts.Load(),
		EstimatedCounts:  p.stats.estCounts.Load(),
		SampleBatches:    p.stats.sampleBatches.Load(),
		RankedEvals:      p.stats.rankedEvals.Load(),
		RankFallbacks:    p.stats.rankFallbacks.Load(),
		IncrementalEvals: p.stats.incrEvals.Load(),
		IncrFallbacks:    p.stats.incrFallbacks.Load(),
	}
}

// flush folds a finished evaluation's forest counters into the plan
// totals.
func (p *Plan) flush(f *forest) {
	p.stats.builds.Add(f.builds.Load())
	p.stats.probes.Add(f.probes.Load())
	p.stats.evals.Add(1)
}

// NewPlan analyses q and fixes the best applicable engine: Yannakakis
// over a GYO join tree when q is acyclic, the bag search over a tree
// decomposition otherwise. For acyclic queries the join forest is
// rooted once, and its semijoin schedule, its counting classification
// and the search program over it are computed here, once, and replayed
// by every read; for cyclic ones the decomposition and its search
// programs are.
func NewPlan(q *cq.Query) *Plan {
	p := &Plan{q: q, tb: q.Tableau(), mode: PlanBags}
	h := hypergraph.FromStructure(p.tb.S)
	if jt, ok := h.GYO(p.tb.Dist); ok {
		p.mode = PlanYannakakis
		p.atoms = atomList(p.tb.S)
		p.vars = make([][]int, len(p.atoms))
		for i, a := range p.atoms {
			p.vars[i] = a.distinctVars()
		}
		headSet := map[int]bool{}
		for _, v := range p.tb.Dist {
			headSet[v] = true
		}
		// Root each tree at the top of its pruned head core (a tree
		// without head variables keeps GYO's root). Every pruned
		// existential subtree then hangs below the core with all of its
		// head variables in its separator, so the search program makes
		// it an existence bag and a read of the reduced forest never
		// visits it; and every count starts at its tree's root.
		var tops []int
		sched := scheduleForAtoms(p.vars, jt.Parent)
		for _, r := range sched.roots {
			if t := buildCountTree(p.vars, jt.Parent, sched, headSet, r); len(t.core) > 0 {
				tops = append(tops, t.core[len(t.core)-1])
			}
		}
		p.jt.Parent = rerootAt(jt.Parent, forestAdj(jt.Parent), tops)
		p.sched = scheduleForAtoms(p.vars, p.jt.Parent)
		p.bags = p.forestBags(p.tb.Dist, p.sched.roots...)
		p.csched = p.newCountSchedule(headSet)
		// Classify the head's natural ascending key once: most ranked
		// calls (and every limit-only call) use it, and Explain reports
		// the connex/fallback decision from it.
		p.rankedIDs = dedupHeadIDs(p.tb.Dist, RankSpec{}.perm(len(p.tb.Dist)))
		p.ranked = p.buildRankProgram(p.rankedIDs)
	} else {
		p.bags = decompose(p.tb).compile(nil, -1)
	}
	return p
}

// rerootAt returns a parent array for the same undirected forest, whose
// adjacency lists are adj, in which each node of roots roots its tree
// (at most one per tree); trees holding none keep their root. It
// returns parent itself when every node of roots is a root already.
func rerootAt(parent []int, adj [][]int, roots []int) []int {
	out, copied := parent, false
	for _, root := range roots {
		if out[root] == -1 {
			continue
		}
		if !copied {
			out, copied = slices.Clone(parent), true
		}
		out[root] = -1
		stack := []int{root}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[u] {
				if w != out[u] {
					out[w] = u
					stack = append(stack, w)
				}
			}
		}
	}
	return out
}

// forestAdj returns the undirected adjacency lists of a parent array.
func forestAdj(parent []int) [][]int {
	adj := make([][]int, len(parent))
	for i, p := range parent {
		if p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	return adj
}

// Query returns the query the plan evaluates.
func (p *Plan) Query() *cq.Query { return p.q }

// Mode returns the selected strategy.
func (p *Plan) Mode() PlanMode { return p.mode }

// normPar resolves a worker budget: anything below two means serial.
func normPar(parallel int) int {
	if parallel < 1 {
		return 1
	}
	return parallel
}

// newForest builds the plan's per-call evaluation state against sn.
func (p *Plan) newForest(sn *relstr.Snapshot, parallel int) *forest {
	f := newForest(p.atoms, p.vars, sn, normPar(parallel))
	if f.par > 1 {
		p.stats.parEvals.Add(1)
	}
	return f
}

// Read is one read request: every choice of a call, resolved from its
// options once before it reaches the plan, and the one argument of the
// plan's four read verbs — Eval, Bool, Stream and Count. The zero
// value is a serial, plain, exact, untraced read.
type Read struct {
	// Par is the worker budget of the reductions; below two is serial.
	Par int
	// Rank orders and truncates the answers of Eval and Stream. An
	// Order or Desc makes both ranked; a Limit alone ranks Eval under
	// the head's natural ascending key, and cuts a Stream short, which
	// keeps the plain enumeration's first-answer latency.
	Rank RankSpec
	// Estimate has Count sample, under Count's accuracy knobs, where
	// the exact count would enumerate.
	Estimate bool
	Count    CountOptions
	// Trace returns the call's execution trace with its result (Stream,
	// whose trace would be complete only after the last answer, has no
	// slot for one and ignores it).
	Trace bool
}

// Eval materialises the plan's answers on sn. A plain read returns the
// full deduplicated answer set in sorted order; a ranked one (see
// Read.Rank) at most Rank.Limit answers in the key's order, streamed
// out of the reduced forest where the key is connex and sorted after a
// full evaluation otherwise. Answers — content and order — are
// identical across snapshots of equal data and across budgets; what
// varies is whether sn's views and indexes are already warm (a
// registered snapshot) or built on first use (a borrowed one) and how
// many cores the semijoin reduction uses. The plain search collects
// the answers into one slab, which is cut into tuples and sorted; for a
// one-column head whose values the search kept in a bitset the slab is
// first rewritten in ascending order off it, which leaves the sort one
// pass. A traced plain read reports the bottom-up reduction pass
// ("semijoin-down"), the search ("join") and the slab cut plus sort
// ("project"); a traced ranked one reports what streamRanked ran. Bag
// (cyclic) plans search serially, ignore the budget and trace the
// total time only (see call).
func (p *Plan) Eval(ctx context.Context, sn *relstr.Snapshot, r Read) (Answers, *obs.ExecTrace, error) {
	if !r.Rank.ranked() {
		return p.eval(ctx, sn, r)
	}
	var s answerSlab
	tr, err := p.streamRanked(ctx, sn, r, s.add)
	if err != nil {
		return nil, tr, err
	}
	return cutRows[relstr.Tuple](s.data, s.n, len(p.tb.Dist)), tr, nil
}

// eval is the plain read of Eval, whose ranked fallback runs it too.
func (p *Plan) eval(ctx context.Context, sn *relstr.Snapshot, r Read) (Answers, *obs.ExecTrace, error) {
	var ans Answers
	tr, err := p.call(sn, r, func(f *forest) error {
		s := answerSlab{data: make([]int, 0, int(p.bags.found.Load())*len(p.tb.Dist))}
		if err := p.search(ctx, sn, f, s.add, &s); err != nil {
			return err
		}
		start := f.clock()
		ans = s.answers(len(p.tb.Dist))
		f.lap("project", start)
		return nil
	})
	return ans, tr, err
}

// answerSlab collects emitted answers back to back in one slab.
type answerSlab struct {
	data []int
	n    int
}

func (s *answerSlab) add(t []int) bool {
	s.data = append(s.data, t...)
	s.n++
	return true
}

// answers cuts the slab into tuples of width w sharing it, sorted. A
// slab a one-column run already rewrote in ascending order costs the
// sort one pass.
func (s *answerSlab) answers(w int) Answers {
	return sortAnswers(cutRows[relstr.Tuple](s.data, s.n, w))
}

// cutRows splits a slab of n back-to-back rows of width w into rows
// sharing it.
func cutRows[R ~[]int](data []int, n, w int) []R {
	out := make([]R, n)
	for k := range out {
		out[k] = data[k*w : (k+1)*w : (k+1)*w]
	}
	return out
}

// Bool reports whether the query has at least one answer on sn
// (Boolean evaluation / answer existence). For acyclic plans this is
// the single leaves→root semijoin pass, O(|D|·|Q|); its trace has that
// pass only. Rank is ignored.
func (p *Plan) Bool(ctx context.Context, sn *relstr.Snapshot, r Read) (bool, *obs.ExecTrace, error) {
	var ok bool
	tr, err := p.call(sn, r, func(f *forest) (err error) {
		ok, err = p.exists(ctx, sn, f)
		return err
	})
	return ok, tr, err
}

// exists reports whether the query has an answer. On an acyclic plan's
// forest f the bottom-up pass alone decides it; a bag plan (f nil)
// searches for a first answer, which wins over a cancellation that
// follows it.
func (p *Plan) exists(ctx context.Context, sn *relstr.Snapshot, f *forest) (bool, error) {
	if f != nil {
		return p.reduce(ctx, f)
	}
	found := false
	err := p.search(ctx, sn, nil, func([]int) bool {
		found = true
		return false
	}, nil)
	if found {
		return true, nil
	}
	return false, err
}

// Stream enumerates distinct answers against snapshot sn one at a
// time without materialising the full answer set. An ordered read
// (Rank.Order or Rank.Desc) streams in the key's order through the
// ranked pipeline (see Eval). Any other read runs the search Eval
// collects from, in discovery order (not sorted), and stops after
// Rank.Limit answers when one is set: for acyclic plans the forest is
// first reduced bottom-up — O(|D|·|Q|), with the worker budget — and
// the bag search then enumerates the reduced join forest's live rows,
// never meeting a dead end; bag plans stream the answers of their
// search as it finds them. Trace is ignored.
//
// Iteration stops early when ctx is cancelled (checked before every
// answer) or the consumer breaks. After the iteration ends, the
// returned function reports nil for a complete enumeration and the
// cancellation error if the search was cut short — an empty cancelled
// stream is thereby distinguishable from a genuinely empty answer set.
// Every delivered tuple is a correct answer regardless of where
// iteration stopped.
func (p *Plan) Stream(ctx context.Context, sn *relstr.Snapshot, r Read) (iter.Seq[relstr.Tuple], func() error) {
	r.Trace = false
	var terminal error
	seq := func(yield func(relstr.Tuple) bool) {
		if r.Rank.ordered() {
			_, terminal = p.streamRanked(ctx, sn, r, func(t []int) bool {
				return yield(relstr.Tuple(t).Clone())
			})
			return
		}
		out := truncated(yield, r.Rank.Limit)
		emit := func(vals []int) bool {
			if terminal = cqerr.Check(ctx); terminal != nil {
				return false
			}
			return out(relstr.Tuple(vals).Clone())
		}
		if _, err := p.call(sn, r, func(f *forest) error {
			return p.search(ctx, sn, f, emit, nil)
		}); err != nil {
			terminal = err
		}
	}
	return seq, func() error { return terminal }
}

// truncated stops yield after limit answers; limit ≤ 0 is unlimited.
func truncated(yield func(relstr.Tuple) bool, limit int) func(relstr.Tuple) bool {
	if limit <= 0 {
		return yield
	}
	n := 0
	return func(t relstr.Tuple) bool {
		n++
		return yield(t) && n < limit
	}
}

// call runs read — one evaluation of the plan against sn — and folds
// its counters into the plan totals. An acyclic plan's read gets a
// fresh forest of sn's views with the worker budget r.Par; a bag
// plan's gets nil (its search runs serially against sn). A traced call
// returns its trace: the forest's phases and per-node counters, or the
// total time only for a bag plan, whose search keeps no per-node row
// counts.
func (p *Plan) call(sn *relstr.Snapshot, r Read, read func(f *forest) error) (*obs.ExecTrace, error) {
	var start time.Time
	if r.Trace {
		start = time.Now()
	}
	if p.mode != PlanYannakakis {
		err := read(nil)
		if !r.Trace {
			return nil, err
		}
		return &obs.ExecTrace{Mode: p.mode.String(), Parallelism: 1,
			TotalNS: time.Since(start).Nanoseconds()}, err
	}
	f := p.newForest(sn, r.Par)
	defer p.flush(f)
	if !r.Trace {
		return nil, read(f)
	}
	tr := getExecTrace(len(f.nodes))
	f.trace = tr
	err := read(f)
	out := tr.snapshot(p, f, time.Since(start))
	f.trace = nil
	putExecTrace(tr)
	return out, err
}

// search is the plan's one enumeration kernel: it runs the plan's bag
// search, calling emit with each distinct answer (a buffer valid for
// the call only) until it returns false, and returns the cancellation
// that cut the search short, if any. A bag plan (f nil) searches its
// decomposition against sn; an acyclic plan reduces its forest f and
// searches the live rows, timed as the trace's "join" phase.
func (p *Plan) search(ctx context.Context, sn *relstr.Snapshot, f *forest, emit func([]int) bool, out *answerSlab) error {
	if f != nil {
		if ok, err := p.reduce(ctx, f); !ok {
			return err
		}
	}
	start := f.clock()
	err := p.runSearch(ctx, sn, f, p.bags, emit, out)
	f.lap("join", start)
	return err
}

// runSearch runs search program bp — over the live rows of f, reduced
// toward bp's roots, or against sn when f is nil — reporting each
// distinct head tuple to emit. When emit fills the slab out, a
// one-column head's run rewrites it in ascending order off its seen set
// (flatSet.ascending).
func (p *Plan) runSearch(ctx context.Context, sn *relstr.Snapshot, f *forest, bp *bagPlan, emit func([]int) bool, out *answerSlab) error {
	var r *bagRun
	if f == nil {
		r = bp.newRun(ctx, sn, emit)
		p.stats.evals.Add(1)
	} else {
		r = bp.forestRun(ctx, sn, f, emit)
	}
	r.run()
	if out != nil && r.err == nil && r.seen.limit > 0 {
		r.seen.ascending(out.data)
	}
	return p.finish(r)
}

// reduce runs the bottom-up semijoin pass over f and reports whether
// every node kept a row. The pass is all the search needs: it leaves
// every live row extending to an assignment of its subtree, and the
// search starts at the roots and reaches a child only through rows
// agreeing with its parent's binding, so it never meets a dead end and
// every existence check holds. Ranked reads run the same pass rooted
// at their first visits (streamRanked); counts run it on the same
// rooting, weighing the nodes they count (Plan.Count).
func (p *Plan) reduce(ctx context.Context, f *forest) (bool, error) {
	if err := f.runDown(ctx, p.sched); err != nil {
		return false, err
	}
	return !f.anyEmpty(), nil
}
