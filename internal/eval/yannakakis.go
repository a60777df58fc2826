package eval

import (
	"errors"

	"cqapprox/internal/cq"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
)

// ErrNotAcyclic reports a cyclic query where an acyclic join tree is
// required (Program, and PrepareCount on a bag plan).
var ErrNotAcyclic = errors.New("eval: query is not acyclic")

// atomList extracts the atoms of a tableau in the deterministic order
// used by hypergraph.FromStructure (relations sorted, tuples in
// insertion order), so atom i corresponds to hypergraph edge i.
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
// atoms with the given parent links.
func scheduleForAtoms(atoms []patom, parent []int, head []int) *schedule {
	vars := make([][]int, len(atoms))
	for i, a := range atoms {
		vars[i] = a.distinctVars()
	}
	children := make([][]int, len(atoms))
	for i, p := range parent {
		if p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	return newSchedule(vars, parent, children, head)
}

// SemijoinProgram describes the reduction schedule a Yannakakis plan
// runs — useful for inspection and teaching output.
type SemijoinProgram struct {
	Atoms []string // rendered atoms, index-aligned with the join tree
	Steps [][2]int // (target, source) semijoin steps, bottom-up then top-down
	Tree  []int    // parent per atom (-1 for roots)
}

// Program returns the semijoin program a Yannakakis plan would execute
// for q.
func Program(q *cq.Query) (*SemijoinProgram, error) {
	tb := q.Tableau()
	h := hypergraph.FromStructure(tb.S)
	jt, ok := h.GYO()
	if !ok {
		return nil, ErrNotAcyclic
	}
	atoms := atomList(tb.S)
	prog := &SemijoinProgram{Tree: jt.Parent}
	for _, a := range atoms {
		prog.Atoms = append(prog.Atoms, cq.Atom{Rel: a.rel, Args: varNames(a.args, tb.Var)}.String())
	}
	children := jt.Children()
	var post func(i int)
	post = func(i int) {
		for _, c := range children[i] {
			post(c)
			prog.Steps = append(prog.Steps, [2]int{i, c})
		}
	}
	var pre func(i int)
	pre = func(i int) {
		for _, c := range children[i] {
			prog.Steps = append(prog.Steps, [2]int{c, i})
			pre(c)
		}
	}
	for _, r := range jt.Roots() {
		post(r)
	}
	for _, r := range jt.Roots() {
		pre(r)
	}
	return prog, nil
}

func varNames(args []int, names map[int]string) []string {
	out := make([]string, len(args))
	for i, e := range args {
		if n, ok := names[e]; ok {
			out[i] = n
		} else {
			out[i] = relstr.Tuple{e}.Key()
		}
	}
	return out
}
