package eval

// The schedule is the static half of the semijoin reduction: every
// column mapping the bottom-up pass needs — which columns key each
// semijoin probe — depends only on the rooted join tree and the atoms'
// variable lists, never on the data. A Plan therefore computes its
// schedules once at prepare time (NewPlan) — the search's, and one per
// reader that roots the pass elsewhere (ranked programs, counting) —
// and every evaluation replays one against per-database indexes; the
// answers are then enumerated by the bag search over the reduced forest
// (bags.go).

// sjStep is one semijoin reduction step: filter target's rows to those
// matching source on the aligned column pairs (tCols[k] in the target
// row pairs with sCols[k] in the source row).
type sjStep struct {
	target, source int
	tCols, sCols   []int
}

// schedule is a full static program for one join forest.
type schedule struct {
	children [][]int    // forest shape, for the executor's subtree fan-out
	downOf   [][]sjStep // bottom-up steps into each node, one per child
	roots    []int
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
