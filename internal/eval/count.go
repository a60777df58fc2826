package eval

// Answer counting: exact counts over the reduced forest or the plan's
// search, and an FPRAS-style sampling estimator for the acyclic plans
// whose counts are not free-connex.
//
// Counting the answers of an acyclic CQ is #P-hard in general
// (projection is what hurts), but after the bottom-up semijoin pass
// every live row extends to an assignment of its subtree, and the live
// rows of each root are exactly the rows that extend to an assignment
// of its whole tree. Each tree of the forest is classified once, at
// prepare time, and counted by one of two kernels:
//
//   - kindUnit: the tree mentions no head variable. Its factor is 1
//     (non-emptiness is already established by the reduction).
//   - kindDP: after pruning dangling existential subtrees, every
//     variable of the remaining core is free. Distinct head tuples then
//     correspond one-to-one to full join rows of the core, counted by
//     the bottom-up pass itself: the core's nodes carry per-row uint64
//     weights, each weighted step multiplies a row's weight by the sum
//     of its partners' (sum and product in place of the Boolean step's
//     or and and, exec.go), and the count is the sum of the tree
//     root's weights — no row is ever materialised.
//   - kindNode: the tree's head variables all live inside one node of
//     the pruned core; kindSample: existential variables stay
//     interleaved between head variables. Both count the distinct
//     tuples the plan's bag search emits over the tree: a node tree's
//     search reads its one node's live rows, and a sample tree's
//     enumerates the tree, never meeting a dead end. Answers are not
//     kept beyond the search's seen set. A node whose columns the head
//     covers needs no search: its live rows are the distinct answers.
//
// The count of a tree reads only the rows of its root plus rows
// reached through matching child rows, and NewPlan roots every tree at
// the top of its pruned core, so each count starts at the tree's root
// and the counting pass is the plan's own pass (countSchedule.sched),
// which weighs the nodes it counts. The pruned subtrees hang below the
// core, and the search of a reduced forest skips them as existence
// checks: a tree's search program is the plan's own when the tree is
// the forest, else one over the tree compiled at NewPlan. A live row of
// a non-root node need not agree with any live row of its parent, but
// no count reads such a row on its own: a weight is a row's number of
// extensions into the subtree below it, and the search and the sampler
// reach a row only through a parent row that extends.
//
// The pruning rule: repeatedly delete a leaf u whose head variables are
// all shared with its unique neighbour. By the join-tree property u's
// interface to the rest of the tree lies in that neighbour, and once
// the pass reduced u into the core every live core row still extends
// through u — so deleting u changes the head projection of no
// extending assignment. This is a free-connex-style
// decomposition: when it bottoms out with existential variables still
// interleaved between head variables (kindSample), exact counting is
// genuinely hard, and the estimator can take over.
//
// Trees are variable-disjoint, so the answer count is the product of
// the per-tree factors. Repeated head variables are counted once: two
// head tuples are equal iff they agree on the distinct head variables,
// so every case counts assignments of the distinct-variable set.
//
// The exact count (Plan.Count) names its path in the result's mode:
// "exact-dp" when no tree samples, "exact-eval" when some tree of an
// acyclic plan enumerates through the search, and "exact-enum" for a
// bag (cyclic) plan, which counts its decomposition search's answers.
// The estimate (Plan.Count of a Read with Estimate) replaces only the
// "exact-eval" case: its pass weighs every node of every sample tree
// too, and each sample tree gets a Karp–Luby-shaped estimator —
// sample uniform full assignments in proportion to those weights,
// divide the assignment total N by the sampled head projection's
// multiplicity m for an unbiased per-sample estimate of the
// distinct-projection count, then median-of-means across batches for
// the (ε, δ) guarantee. Every other tree keeps its exact factor; the
// result is the product. Weights are exact, so a tree with 2^64 or
// more full assignments fails the estimate with ErrCountOverflow, as a
// dp tree fails the exact count.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/obs"
	"cqapprox/internal/relstr"
)

// ErrCountOverflow reports that an exact answer count does not fit in
// uint64.
var ErrCountOverflow = errors.New("eval: answer count overflows uint64")

// Count modes (CountResult.Mode).
const (
	ModeExactDP   = "exact-dp"
	ModeExactEval = "exact-eval"
	ModeExactEnum = "exact-enum"
	ModeEstimate  = "estimate"
)

// CountOptions tune an estimated count. The zero value is usable:
// every field falls back to its default.
type CountOptions struct {
	// Epsilon is the relative error target (default 0.1).
	Epsilon float64
	// Delta is the failure probability (default 0.05): the estimate is
	// within (1±ε) of the true count with probability ≥ 1-δ.
	Delta float64
	// Seed makes runs reproducible (default 1). Same plan, database,
	// options and seed ⇒ same estimate.
	Seed int64
	// MaxSamples caps the total samples drawn across the whole call
	// (default 200000); the per-batch size shrinks to fit.
	MaxSamples int
}

// Defaults of CountOptions.
const (
	DefaultEpsilon    = 0.1
	DefaultDelta      = 0.05
	DefaultSeed       = 1
	DefaultMaxSamples = 200000
)

func (o CountOptions) withDefaults() CountOptions {
	if o.Epsilon <= 0 {
		o.Epsilon = DefaultEpsilon
	}
	if o.Delta <= 0 {
		o.Delta = DefaultDelta
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = DefaultMaxSamples
	}
	return o
}

// CountResult is the outcome of a counting call: the answer count
// (exact, or the rounded estimate), how it was obtained, and — for
// estimates — the sampling effort and the accuracy knobs in effect.
type CountResult struct {
	// Count is the number of distinct answers; exact when Estimated is
	// false, the rounded Estimate otherwise.
	Count uint64
	// Estimate is the raw, possibly fractional estimate (float64(Count)
	// for exact results).
	Estimate float64
	// Estimated reports whether sampling produced the result.
	Estimated bool
	// Mode names the path taken: "exact-dp" (the per-tree product of
	// DP and search counts over the forest the bottom-up semijoin pass
	// reduced, and for dp trees weighed), "exact-eval"
	// (the same product where some tree's search enumerates it),
	// "exact-enum" (the answers of a cyclic plan's bag search counted
	// without being kept), or "estimate" (the sampling estimator).
	Mode string
	// Samples and Batches report the estimator's effort (zero when
	// exact).
	Samples int
	Batches int
	// Epsilon and Delta echo the accuracy target of an estimate.
	Epsilon float64
	Delta   float64
	// Trace is the execution trace of this count, present only when the
	// call asked for one; nil otherwise.
	Trace *obs.ExecTrace `json:"trace,omitempty"`
}

// Count returns the answer count of the plan on sn, with the read's
// trace in CountResult.Trace. The exact count of an acyclic plan
// reduces its forest with the counting pass, whose weighted steps run
// every dp tree's DP inside the "semijoin-down" phase, and multiplies
// the per-tree factors, timed as the "count" phase (which sums the
// dp roots' weights) — or as "join" when some tree enumerates, as
// the search is in Eval. A bag plan counts its search's answers and
// traces total time only. The error is ErrCountOverflow when the count
// exceeds uint64.
//
// A read with Estimate samples only where the exact count would
// enumerate (the "exact-eval" plans), under r.Count, with the sampling
// in a "count-estimate" phase. Every other plan returns the exact
// count — estimation never makes a cheap count worse. The sampler's
// weights are exact uint64s, so the error is ErrCountOverflow when a
// sampled tree has 2^64 or more full assignments, even where the exact
// count of the same plan succeeds.
func (p *Plan) Count(ctx context.Context, sn *relstr.Snapshot, r Read) (*CountResult, error) {
	if r.Estimate && p.mode == PlanYannakakis && !p.csched.exact {
		return p.estimateCount(ctx, sn, r)
	}
	var n uint64
	tr, err := p.call(sn, r, func(f *forest) (err error) {
		n, err = p.countExact(ctx, sn, f)
		return err
	})
	if err != nil {
		return nil, err
	}
	mode := ModeExactDP
	switch {
	case p.mode != PlanYannakakis:
		mode = ModeExactEnum
	case !p.csched.exact:
		mode = ModeExactEval
	}
	p.stats.exactCounts.Add(1)
	return &CountResult{Count: n, Estimate: float64(n), Mode: mode, Trace: tr}, nil
}

// countExact is Count's read of f: the product of the exact factors of
// every tree of the forest reduced by the counting pass, or for a bag
// plan (f nil) the count of its search's answers.
func (p *Plan) countExact(ctx context.Context, sn *relstr.Snapshot, f *forest) (uint64, error) {
	var n uint64
	if f == nil {
		err := p.search(ctx, sn, nil, func([]int) bool { n++; return true }, nil)
		return n, err
	}
	if err := f.runDown(ctx, p.csched.sched); err != nil {
		return 0, err
	}
	phase := "count" // an exact plan times even an empty product
	if !p.csched.exact {
		if f.anyEmpty() {
			return 0, nil
		}
		phase = "join"
	}
	start := f.clock()
	defer f.lap(phase, start)
	if f.anyEmpty() {
		return 0, nil
	}
	if f.overflow.Load() {
		return 0, ErrCountOverflow
	}
	n = 1
	for i := range p.csched.trees {
		c, err := p.treeCount(ctx, sn, f, &p.csched.trees[i])
		if err != nil {
			return 0, err
		}
		var ok bool
		if n, ok = mulU64(n, c); !ok {
			return 0, ErrCountOverflow
		}
	}
	return n, nil
}

// treeCount is the exact distinct-head-projection count of tree t on
// f, a forest the counting pass reduced and left non-empty.
func (p *Plan) treeCount(ctx context.Context, sn *relstr.Snapshot, f *forest, t *countTree) (uint64, error) {
	switch t.kind {
	case kindUnit:
		return 1, nil
	case kindDP:
		return f.runDP(t)
	case kindNode:
		// A head that covers the node's columns counts its live rows,
		// which are distinct, where the search would hash every one.
		if node := &f.nodes[t.root]; len(node.vars) == len(t.headVars) {
			return uint64(node.live), nil
		}
	}
	var n uint64
	err := p.runSearch(ctx, sn, f, t.bags, func([]int) bool { n++; return true }, nil)
	return n, err
}

// estimateCount is Count's estimating read of an "exact-eval" plan.
func (p *Plan) estimateCount(ctx context.Context, sn *relstr.Snapshot, r Read) (*CountResult, error) {
	var res *CountResult
	tr, err := p.call(sn, r, func(f *forest) (err error) {
		res, err = p.estimate(ctx, sn, f, r.Count.withDefaults())
		return err
	})
	if err != nil {
		return nil, err
	}
	if res.Estimated {
		p.stats.estCounts.Add(1)
		p.stats.sampleBatches.Add(uint64(res.Batches))
	} else {
		p.stats.exactCounts.Add(1)
	}
	res.Trace = tr
	return res, nil
}

// estimate is estimateCount's read of f: the exact factors of the
// trees that count exactly times a median-of-means estimate per sample
// tree. An empty forest answers an exact zero.
func (p *Plan) estimate(ctx context.Context, sn *relstr.Snapshot, f *forest, opts CountOptions) (*CountResult, error) {
	if err := f.runDown(ctx, p.csched.est); err != nil || f.anyEmpty() {
		return &CountResult{Mode: ModeExactDP}, err
	}
	if f.overflow.Load() {
		return nil, ErrCountOverflow
	}
	start := f.clock()
	var sampled []*countTree
	est := 1.0
	for i := range p.csched.trees {
		t := &p.csched.trees[i]
		if t.kind == kindSample {
			sampled = append(sampled, t)
			continue
		}
		n, err := p.treeCount(ctx, sn, f, t)
		if err != nil {
			return nil, err
		}
		est *= float64(n) // at least 1 on a non-empty reduced forest
	}

	// Split the accuracy budget across the k sampled trees: per-tree
	// relative error ε/k and failure δ/k make the product of the tree
	// estimates land within (1±ε) with probability ≥ 1-δ (union bound;
	// Π(1±ε/k) ⊆ 1±ε for ε ≤ 1).
	k := float64(len(sampled))
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &CountResult{Estimated: true, Mode: ModeEstimate, Epsilon: opts.Epsilon, Delta: opts.Delta}
	for _, t := range sampled {
		s, err := f.sampler(t, p.csched.est)
		if err != nil {
			return nil, err
		}
		mean, samples, batches, err := estimateTree(ctx, s, rng, opts.Epsilon/k, opts.Delta/k, opts.MaxSamples/len(sampled))
		if err != nil {
			return nil, err
		}
		est *= mean
		res.Samples += samples
		res.Batches += batches
	}
	f.lap("count-estimate", start)
	res.Count, res.Estimate = uint64(math.Round(est)), est
	return res, nil
}

// estimateTree runs the median-of-means estimator on one sampling
// tree: a pilot round sizes the batches from the empirical variance
// (Chebyshev, per-batch failure ≤ 1/4), then the median of
// B = Θ(log 1/δ) batch means boosts the confidence to 1-δ. It returns
// the estimate with the samples and batches it took, or the
// cancellation of ctx, which it polls before every sample.
func estimateTree(ctx context.Context, s *treeSampler, rng *rand.Rand, eps, delta float64, budget int) (mean float64, samples, batches int, err error) {
	if s.total <= 0 {
		return 0, 0, 0, fmt.Errorf("eval: sampling an empty tree")
	}
	draw := func() (float64, error) {
		if err := cqerr.Check(ctx); err != nil {
			return 0, err
		}
		return treeSample(s, rng)
	}
	const pilot = 64
	m2 := 0.0
	for i := 0; i < pilot; i++ {
		x, err := draw()
		if err != nil {
			return 0, 0, 0, err
		}
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	variance := m2 / float64(pilot-1)
	if variance == 0 {
		// Every pilot sample agreed — the tree's projection multiplicity
		// is uniform and the pilot mean is already the exact ratio.
		return mean, pilot, 1, nil
	}
	size := max(16, int(math.Ceil(4*variance/(eps*eps*mean*mean))))
	b := int(math.Ceil(8 * math.Log(1/delta)))
	if b%2 == 0 {
		b++
	}
	if budget > 0 && size*b > budget {
		size = max(1, budget/b)
	}
	means := make([]float64, b)
	for i := range means {
		sum := 0.0
		for j := 0; j < size; j++ {
			x, err := draw()
			if err != nil {
				return 0, 0, 0, err
			}
			sum += x
		}
		means[i] = sum / float64(size)
	}
	slices.Sort(means)
	return means[b/2], pilot + size*b, b, nil
}

// countKind classifies how one tree of the forest is counted.
type countKind int

const (
	kindUnit countKind = iota
	kindDP
	kindNode
	kindSample
)

func (k countKind) String() string { return [...]string{"unit", "dp", "node", "sample"}[k] }

// countTree is the prepare-time counting program of one tree.
type countTree struct {
	root     int
	nodes    []int // all tree nodes, postorder (children before parents)
	headVars []int // distinct head variables occurring in the tree
	kind     countKind

	// kindDP and kindNode: the pruned core, postorder.
	core []int

	// kindNode and kindSample: the search program over the tree,
	// emitting headVars.
	bags *bagPlan
}

// countSchedule is the static counting classification of a plan.
type countSchedule struct {
	trees []countTree // aligned with the plan schedule's roots
	exact bool        // no tree needs sampling
	// sched is Count's pass: the plan's schedule weighing the core of
	// every dp tree. est is the estimate's, which also weighs every
	// node of every sample tree (nil when no tree samples).
	sched, est *schedule
}

// newCountSchedule classifies every tree of the plan's forest, each
// rooted at the top of its pruned core (NewPlan), weighs the counting
// passes, and gives every node or sample tree its search program: the
// plan's own when the tree is the forest, else one over the tree.
func (p *Plan) newCountSchedule(headSet map[int]bool) *countSchedule {
	cs := &countSchedule{exact: true}
	dp, sampled := make([]bool, len(p.atoms)), make([]bool, len(p.atoms))
	for _, r := range p.sched.roots {
		t := buildCountTree(p.vars, p.jt.Parent, p.sched, headSet, r)
		switch t.kind {
		case kindDP:
			for _, i := range t.core {
				dp[i], sampled[i] = true, true
			}
		case kindSample:
			for _, i := range t.nodes {
				sampled[i] = true
			}
		}
		if t.kind == kindNode || t.kind == kindSample {
			if len(p.sched.roots) == 1 {
				t.bags = p.bags
			} else {
				t.bags = p.forestBags(t.headVars, r)
			}
		}
		cs.exact = cs.exact && t.kind != kindSample
		cs.trees = append(cs.trees, t)
	}
	cs.sched = weighSchedule(p.sched, dp)
	if !cs.exact {
		cs.est = weighSchedule(p.sched, sampled)
	}
	return cs
}

// buildCountTree classifies the tree rooted at root: its nodes and head
// variables, and the core the pruning rule leaves. Rerooted at the top
// of that core, the tree keeps it: the pruning removes the same nodes
// in any order, except which node of a last pair survives, and from the
// core's top it removes every other node before it reaches the top.
func buildCountTree(vars [][]int, parent []int, sched *schedule, headSet map[int]bool, root int) countTree {
	t := countTree{root: root}
	var post func(i int)
	post = func(i int) {
		for _, c := range sched.children[i] {
			post(c)
		}
		t.nodes = append(t.nodes, i)
	}
	post(root)
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
		t.kind = kindUnit
		return t
	}

	// Prune dangling existential subtrees: delete a leaf whose head
	// variables its unique neighbour already carries, repeatedly.
	alive, deg := make([]bool, len(vars)), make([]int, len(vars))
	for _, i := range t.nodes {
		alive[i] = true
		for _, c := range sched.children[i] {
			deg[i]++
			deg[c]++
		}
	}
	neighbour := func(i int) int { // the only one of a node of degree 1
		for _, c := range sched.children[i] {
			if alive[c] {
				return c
			}
		}
		return parent[i]
	}
	left := len(t.nodes)
	queue := append([]int{}, t.nodes...)
	for len(queue) > 0 && left > 1 {
		u := queue[0]
		queue = queue[1:]
		if !alive[u] || deg[u] != 1 {
			continue
		}
		nb := neighbour(u)
		if slices.ContainsFunc(vars[u], func(v int) bool { return headSet[v] && !slices.Contains(vars[nb], v) }) {
			continue // u carries a head variable nb lacks
		}
		alive[u] = false
		left--
		deg[nb]--
		if deg[nb] == 1 {
			queue = append(queue, nb)
		}
	}
	for _, i := range t.nodes {
		if alive[i] {
			t.core = append(t.core, i)
		}
	}

	if len(t.core) == 1 {
		// Pruning never discards a head variable, so the single core
		// node covers them all: distinct projection.
		t.kind = kindNode
		return t
	}
	t.kind = kindDP
	for _, i := range t.core {
		if slices.ContainsFunc(vars[i], func(v int) bool { return !headSet[v] }) {
			t.kind = kindSample
		}
	}
	return t
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

// --- the counting kernels ----------------------------------------------

// runDP is a dp tree's count: the sum of its root's weights, each
// live row's number of extensions into the core below it, which the
// weighted steps of the counting pass left (a dead row weighs 0).
func (f *forest) runDP(tree *countTree) (uint64, error) {
	var n uint64
	for _, w := range f.nodes[tree.root].wt {
		var ok bool
		if n, ok = addU64(n, w); !ok {
			return 0, ErrCountOverflow
		}
	}
	return n, nil
}

// --- sampling estimator support ----------------------------------------

// treeSampler supports the FPRAS-style estimator on one kindSample
// tree: the full-join multiplicity weights the counting pass computed
// (total = N, the number of complete assignments of the tree), uniform
// top-down sampling of one assignment proportional to them, and the
// pinned count of the multiplicity m of a sampled head projection.
// N/m is then an unbiased estimate of the number of distinct head
// projections. The weights are exact uint64s read as float64, exact
// below 2^53; a sample costs the rows it matches, not the forest (see
// multiplicity).
type treeSampler struct {
	nodes  []sampleNode // aligned with tree.nodes (postorder, root last)
	total  float64
	live   []int32   // the root's live row ids, ascending
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
	w     []uint64 // the pass's full-join weight per row (0 for dead rows)
	head  [][2]int // (column, hv position) of each head variable in the node
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

// sampler builds the sampling state of a kindSample tree over f, a
// forest reduced and weighed by the counting pass sched, whose steps
// into a node are the edges a sample descends. It fails with
// ErrCountOverflow when the tree has 2^64 or more full assignments.
func (f *forest) sampler(tree *countTree, sched *schedule) (*treeSampler, error) {
	pos := make([]int, len(f.nodes))
	for k, i := range tree.nodes {
		pos[i] = k
	}
	s := &treeSampler{
		nodes: make([]sampleNode, len(tree.nodes)),
		hv:    make([]int, len(tree.headVars)),
	}
	for k, i := range tree.nodes {
		node := &f.nodes[i]
		sn := &s.nodes[k]
		sn.rows, sn.w = node.rows, node.wt
		for j, v := range node.vars {
			if h := slices.Index(tree.headVars, v); h >= 0 {
				sn.head = append(sn.head, [2]int{j, h})
			}
		}
		sn.pinned = len(sn.head) > 0
		for _, st := range sched.downOf[i] {
			c := pos[st.source]
			sn.steps = append(sn.steps, sampleStep{child: c, ix: f.index(&f.nodes[st.source], st.sCols, nil), tCols: st.tCols})
			sn.pinned = sn.pinned || s.nodes[c].pinned
		}
	}
	root := &s.nodes[len(s.nodes)-1]
	live := f.nodes[tree.root].live
	s.live, s.prefix = make([]int32, 0, live), make([]float64, 0, live)
	var n uint64
	for id, w := range root.w {
		var ok bool
		if n, ok = addU64(n, w); !ok {
			return nil, ErrCountOverflow
		}
		if w > 0 { // live
			s.total += float64(w)
			s.live, s.prefix = append(s.live, int32(id)), append(s.prefix, s.total)
		}
	}
	if len(root.head) > 0 {
		cols := make([]int, len(root.head))
		s.pinCols = make([]int, len(root.head))
		for j, hc := range root.head {
			cols[j] = hc[0]
			s.pinCols[j] = j
		}
		s.rootIx = f.index(&f.nodes[tree.root], cols, nil)
		s.pin = make([]int, len(cols))
	}
	return s, nil
}

// treeSample draws one uniform full assignment of the tree, computes
// the multiplicity m of its head projection, and returns the unbiased
// per-sample estimate N/m of the tree's distinct-projection count. It
// is the seam the tests swap for the reference O(forest) step
// (refSample) to check the two agree.
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
	if j == len(s.live) {
		j-- // float rounding: fall back to the last candidate
	}
	return s.live[j]
}

// descend fixes node k to row id, records its head values, and samples
// one matching row per child proportional to the child's weights.
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
			sum += float64(cw[sid])
			if cw[sid] > 0 {
				last = sid
			}
		}
		target := rng.Float64() * sum
		acc := 0.0
		chosen := last
		for sid := st.ix.First(row, st.tCols); sid >= 0; sid = st.ix.Next(sid, row, st.tCols) {
			acc += float64(cw[sid])
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
		for _, id := range s.live {
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
// contributes the weights the pass left; a pinned one recurses into
// the live matching rows that hold the sampled values. Sums run in
// index chain order, and dead or disagreeing rows — which a full pinned
// DP would weigh 0 — are skipped, so the result is the same float the
// full pinned DP computes.
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
				sum += float64(child.w[sid])
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
