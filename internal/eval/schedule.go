package eval

// The schedule is the static half of the semijoin reduction: every
// column mapping the two Yannakakis passes need — which columns key
// each semijoin probe — depends only on the join tree and the atoms'
// variable lists, never on the data. A Plan therefore computes its
// schedule once at prepare time (NewPlan) and every evaluation replays
// it against per-database indexes; the answers are then enumerated by
// the bag search over the reduced forest (bags.go).

// sjStep is one semijoin reduction step: filter target's rows to those
// matching source on the aligned column pairs (tCols[k] in the target
// row pairs with sCols[k] in the source row).
type sjStep struct {
	target, source int
	tCols, sCols   []int
}

// schedule is a full static program for one join forest.
type schedule struct {
	postorder []int
	preorder  []int
	children  [][]int    // forest shape, for the executor's subtree fan-out
	downOf    [][]sjStep // bottom-up steps, applied visiting postorder
	upOf      [][]sjStep // top-down steps, applied visiting preorder
	roots     []int

	// needed marks the nodes whose subtree holds a head variable they do
	// not share with their parent (for a root: any head variable) — the
	// nodes the answer search has to read rows from; every other node
	// only has to be non-empty. When one needed root has no needed child,
	// every answer is read from directNode's reduced rows and the
	// bottom-up pass alone finalises them; directNode is -1 when no such
	// node exists and unitNode for Boolean-shaped schedules.
	needed     []bool
	directNode int
}

// unitNode is the directNode sentinel for schedules where no node is
// needed (Boolean queries): the answer is the empty tuple exactly when
// every tree has an assignment.
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
		needed:   make([]bool, len(vars)),
	}
	for i := range vars {
		if parent[i] == -1 {
			sc.roots = append(sc.roots, i)
		}
	}
	// Orders, semijoin steps, and the needed nodes: below holds the head
	// variables of the subtree being finished.
	isHead := map[int]bool{}
	for _, v := range head {
		isHead[v] = true
	}
	var post func(i int) []int
	post = func(i int) []int {
		var below []int
		for _, c := range children[i] {
			below = append(below, post(c)...)
		}
		for _, v := range vars[i] {
			if isHead[v] {
				below = append(below, v)
			}
		}
		for _, c := range children[i] {
			tc, scols := sharedCols(vars[i], vars[c])
			sc.downOf[i] = append(sc.downOf[i], sjStep{target: i, source: c, tCols: tc, sCols: scols})
		}
		for _, v := range below {
			if parent[i] == -1 || indexOfOrNeg(vars[parent[i]], v) == -1 {
				sc.needed[i] = true
			}
		}
		sc.postorder = append(sc.postorder, i)
		return below
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
	sc.directNode = unitNode
	for _, r := range sc.roots {
		switch {
		case !sc.needed[r]:
		case sc.directNode != unitNode:
			sc.directNode = -1 // several trees hold head variables
			return sc
		default:
			sc.directNode = r
		}
	}
	if r := sc.directNode; r >= 0 {
		for _, c := range children[r] {
			if sc.needed[c] {
				sc.directNode = -1
			}
		}
	}
	return sc
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
