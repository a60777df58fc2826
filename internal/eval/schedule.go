package eval

// The schedule is the static half of the indexed join runtime: every
// column mapping the Yannakakis pipeline needs — which columns key
// each semijoin probe, which columns a join copies, what each node
// projects onto — depends only on the join tree and the atoms'
// variable lists, never on the data. A Plan therefore computes its
// schedule once at prepare time (NewPlan) and every Eval/Stream call
// replays it against per-database indexes.

// sjStep is one semijoin reduction step: filter target's rows to those
// matching source on the aligned column pairs (tCols[k] in the target
// row pairs with sCols[k] in the source row).
type sjStep struct {
	target, source int
	tCols, sCols   []int
}

// jStep is one join step of the bottom-up solve: probe the child's
// relation keyed on rCols with the accumulator's lCols, appending the
// child's rExtra columns to each matching accumulator row.
//
// skip marks steps that copy no columns (rExtra empty): after the full
// two-pass semijoin reduction the forest is globally consistent —
// every surviving row extends to a complete assignment — so a join
// that would only *filter* the accumulator filters nothing and is
// elided entirely. The flag is static (it depends only on the variable
// flow), which is what lets whole subtrees drop out of the solve phase
// at prepare time.
type jStep struct {
	child                int
	lCols, rCols, rExtra []int
	outVars              []int
	skip                 bool
}

// nodeSched is the solve-phase program of one node: join every child,
// then project onto projCols (nil = identity, the projection would
// keep every column).
type nodeSched struct {
	joins    []jStep
	projCols []int
	vars     []int // the node's upward relation variables
}

// schedule is a full static program for one join forest.
type schedule struct {
	postorder []int
	preorder  []int
	children  [][]int    // forest shape, for the executor's subtree fan-out
	downOf    [][]sjStep // bottom-up steps, applied visiting postorder
	upOf      [][]sjStep // top-down steps, applied visiting preorder
	nodes     []nodeSched
	roots     []int
	rootJoins []jStep // cross product across components onto total
	totalVars []int
	head      []int
	headCols  []int // head positions in totalVars

	// Post-reduction dead-step analysis (see jStep.skip). needed marks
	// the nodes whose solve output some retained join consumes; the
	// others never materialise an upward relation. When the analysis
	// eliminates every join — the head lives inside one atom, as in
	// chain and star queries — the whole solve phase collapses to a
	// direct head projection of directNode's reduced rows through
	// directCols; directNode is -1 when no such shortcut exists and
	// unitNode for Boolean-shaped schedules whose answer is the unit
	// relation.
	needed     []bool
	directNode int
	directCols []int // head positions in vars[directNode]
}

// unitNode is the directNode sentinel for schedules where every
// component's contribution is empty (Boolean queries): the solve
// result is the unit relation, a single empty row.
const unitNode = -2

// sharedCols returns the aligned column pairs of the variables common
// to a and b, in a's order (the order sharedVars uses).
func sharedCols(a, b []int) (aCols, bCols []int) {
	for i, v := range a {
		for j, w := range b {
			if v == w {
				aCols = append(aCols, i)
				bCols = append(bCols, j)
				break
			}
		}
	}
	return aCols, bCols
}

// newSchedule builds the static program for a forest with the given
// per-node variable lists, parent/children links, and head.
func newSchedule(vars [][]int, parent []int, children [][]int, head []int) *schedule {
	sc := &schedule{
		children: children,
		downOf:   make([][]sjStep, len(vars)),
		upOf:     make([][]sjStep, len(vars)),
		nodes:    make([]nodeSched, len(vars)),
		head:     append([]int{}, head...),
	}
	freeSet := map[int]bool{}
	for _, v := range head {
		freeSet[v] = true
	}
	for i := range vars {
		if parent[i] == -1 {
			sc.roots = append(sc.roots, i)
		}
	}
	// Orders and semijoin steps.
	var post func(i int)
	post = func(i int) {
		for _, c := range children[i] {
			post(c)
		}
		for _, c := range children[i] {
			tc, scols := sharedCols(vars[i], vars[c])
			sc.downOf[i] = append(sc.downOf[i], sjStep{target: i, source: c, tCols: tc, sCols: scols})
		}
		sc.postorder = append(sc.postorder, i)
	}
	var pre func(i int)
	pre = func(i int) {
		sc.preorder = append(sc.preorder, i)
		for _, c := range children[i] {
			tc, scols := sharedCols(vars[c], vars[i])
			sc.upOf[i] = append(sc.upOf[i], sjStep{target: c, source: i, tCols: tc, sCols: scols})
		}
		for _, c := range children[i] {
			pre(c)
		}
	}
	for _, r := range sc.roots {
		post(r)
	}
	for _, r := range sc.roots {
		pre(r)
	}
	// Solve phase: simulate the join/projection variable flow.
	var solve func(i int) []int
	solve = func(i int) []int {
		acc := vars[i]
		ns := &sc.nodes[i]
		for _, c := range children[i] {
			cv := solve(c)
			lCols, rCols := sharedCols(acc, cv)
			var rExtra []int
			outVars := append([]int{}, acc...)
			for j, v := range cv {
				if indexOfOrNeg(acc, v) == -1 {
					rExtra = append(rExtra, j)
					outVars = append(outVars, v)
				}
			}
			ns.joins = append(ns.joins, jStep{child: c, lCols: lCols, rCols: rCols, rExtra: rExtra, outVars: outVars})
			acc = outVars
		}
		// Keep: free variables of the subtree ∪ connector to parent.
		var keep, keepCols []int
		for j, v := range acc {
			kept := freeSet[v]
			if p := parent[i]; !kept && p != -1 {
				kept = indexOfOrNeg(vars[p], v) != -1
			}
			if kept {
				keep = append(keep, v)
				keepCols = append(keepCols, j)
			}
		}
		if len(keep) == len(acc) {
			ns.projCols = nil // identity: the join output is already deduplicated
			ns.vars = acc
		} else {
			ns.projCols = keepCols
			ns.vars = keep
		}
		return ns.vars
	}
	total := []int{}
	for _, r := range sc.roots {
		rv := solve(r)
		lCols, rCols := sharedCols(total, rv)
		var rExtra []int
		outVars := append([]int{}, total...)
		for j, v := range rv {
			if indexOfOrNeg(total, v) == -1 {
				rExtra = append(rExtra, j)
				outVars = append(outVars, v)
			}
		}
		sc.rootJoins = append(sc.rootJoins, jStep{child: r, lCols: lCols, rCols: rCols, rExtra: rExtra, outVars: outVars})
		total = outVars
	}
	sc.totalVars = total
	sc.headCols = make([]int, len(head))
	for i, v := range head {
		sc.headCols[i] = indexOf(total, v)
	}
	sc.analyze(vars)
	return sc
}

// analyze computes the post-reduction dead-step information: which
// joins copy no columns (skip), which nodes still materialise a solve
// relation (needed), and whether the whole solve collapses to a direct
// head projection (directNode/directCols).
func (sc *schedule) analyze(vars [][]int) {
	for i := range sc.nodes {
		for k := range sc.nodes[i].joins {
			sc.nodes[i].joins[k].skip = len(sc.nodes[i].joins[k].rExtra) == 0
		}
	}
	live := -1 // the unique retained rootJoin, if exactly one
	for k := range sc.rootJoins {
		sc.rootJoins[k].skip = len(sc.rootJoins[k].rExtra) == 0
		if !sc.rootJoins[k].skip {
			if live == -1 {
				live = k
			} else {
				live = -3 // several components contribute columns
			}
		}
	}
	sc.needed = make([]bool, len(sc.nodes))
	var mark func(i int)
	mark = func(i int) {
		sc.needed[i] = true
		for _, st := range sc.nodes[i].joins {
			if !st.skip {
				mark(st.child)
			}
		}
	}
	for _, st := range sc.rootJoins {
		if !st.skip {
			mark(st.child)
		}
	}
	sc.directNode = -1
	switch {
	case live == -1:
		// Every component's contribution is empty: Boolean query, the
		// solve result is the unit relation (head is necessarily empty —
		// a head variable would be kept by its component's root).
		sc.directNode = unitNode
	case live >= 0:
		r := sc.rootJoins[live].child
		allSkipped := true
		for _, st := range sc.nodes[r].joins {
			if !st.skip {
				allSkipped = false
				break
			}
		}
		if allSkipped {
			// The one contributing component runs no joins either: the
			// answers are the head projection of the root's reduced rows
			// (head ⊆ keep(root) ⊆ vars[root]), folding the root's own
			// projection into the head projection.
			sc.directNode = r
			sc.directCols = make([]int, len(sc.head))
			for i, v := range sc.head {
				sc.directCols[i] = indexOf(vars[r], v)
			}
		}
	}
}

// indexOfOrNeg is indexOf without the panic: -1 when v is absent.
func indexOfOrNeg(vars []int, v int) int {
	for i, x := range vars {
		if x == v {
			return i
		}
	}
	return -1
}
