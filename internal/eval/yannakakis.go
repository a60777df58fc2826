package eval

import (
	"cqapprox/internal/relstr"
)

// atomList extracts the atoms of a tableau in a deterministic order
// (relations sorted, tuples in insertion order); NewPlan's hypergraph
// has one edge per atom, in this order.
func atomList(s *relstr.Structure) []patom {
	var out []patom
	for _, rel := range s.Relations() {
		for _, t := range s.Tuples(rel) {
			out = append(out, patom{rel: rel, args: append([]int{}, t...), pat: atomPattern(t)})
		}
	}
	return out
}

type patom struct {
	rel  string
	args []int
	pat  []int // repetition pattern of args (atomPattern)
}

// distinctVars returns the atom's distinct variables in order of first
// occurrence.
func (a patom) distinctVars() []int {
	seen := map[int]bool{}
	var out []int
	for _, v := range a.args {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// scheduleForAtoms derives the static program for a join forest of
// atoms, whose distinct variables are vars, with the given parent
// links.
func scheduleForAtoms(vars [][]int, parent []int) *schedule {
	children := make([][]int, len(vars))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return newSchedule(vars, parent, children)
}

// scheduleRootedAt returns the schedule of the forest with parent links
// parent, whose own schedule is sched, re-rooted so that each node of
// roots (at most one per tree) roots its tree; trees holding none keep
// their root. It returns sched itself when every node of roots is a
// root already.
func scheduleRootedAt(sched *schedule, vars [][]int, parent, roots []int) *schedule {
	for _, r := range roots {
		if parent[r] != -1 {
			return scheduleForAtoms(vars, rerootAt(parent, forestAdj(parent), roots))
		}
	}
	return sched
}
