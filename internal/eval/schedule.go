package eval

import "slices"

// The schedule is the static half of the semijoin reduction: every
// column mapping the bottom-up pass needs — which columns key each
// semijoin probe — depends only on the rooted join tree and the atoms'
// variable lists, never on the data. A Plan therefore computes its
// schedules once at prepare time (NewPlan) — the search's, which the
// counting passes weigh, and one per ranked program that roots the pass
// at its first visits — and every evaluation replays one against
// per-database indexes; the answers are then enumerated by the bag
// search over the reduced forest (bags.go).

// sjStep is one semijoin reduction step: filter target's rows to those
// matching source on the aligned column pairs (tCols[k] in the target
// row pairs with sCols[k] in the source row). A weighted step runs
// between two nodes that carry per-row weights: it multiplies each
// target row's weight by the summed weights of its source partners.
type sjStep struct {
	target, source int
	tCols, sCols   []int
	weighted       bool
}

// schedule is a full static program for one join forest.
type schedule struct {
	children [][]int    // forest shape, for the executor's subtree fan-out
	downOf   [][]sjStep // bottom-up steps into each node, one per child
	roots    []int
	// weighted marks the nodes that carry per-row weights (counting
	// passes only, see weighSchedule; nil elsewhere).
	weighted []bool
}

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
// per-node variable lists and parent/children links.
func newSchedule(vars [][]int, parent []int, children [][]int) *schedule {
	sc := &schedule{
		children: children,
		downOf:   make([][]sjStep, len(vars)),
	}
	for i := range vars {
		if parent[i] == -1 {
			sc.roots = append(sc.roots, i)
		}
		for _, c := range children[i] {
			tc, scols := sharedCols(vars[i], vars[c])
			sc.downOf[i] = append(sc.downOf[i], sjStep{target: i, source: c, tCols: tc, sCols: scols})
		}
	}
	return sc
}

// weighSchedule returns a copy of sched whose nodes marked in weighted
// carry per-row weights: a step between two of them is weighted, and
// runs after the target's Boolean steps, so weights start on the rows
// those left. It returns sched itself when no node is marked.
func weighSchedule(sched *schedule, weighted []bool) *schedule {
	if !slices.Contains(weighted, true) {
		return sched
	}
	sc := &schedule{children: sched.children, roots: sched.roots, weighted: weighted,
		downOf: make([][]sjStep, len(sched.downOf))}
	for i, steps := range sched.downOf {
		for _, pass := range []bool{false, true} {
			for _, st := range steps {
				if st.weighted = weighted[i] && weighted[st.source]; st.weighted == pass {
					sc.downOf[i] = append(sc.downOf[i], st)
				}
			}
		}
	}
	return sc
}
