package eval

import (
	"context"

	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// This file preserves the pre-indexed, string-keyed relational
// operators exactly as they were before the indexed runtime replaced
// them. They are differential oracles: FuzzJoinEquivalence and the
// unit tests assert the indexed semijoin/join/project agree with these
// on arbitrary relations, and Plan.EvalBaseline runs the full old
// pipeline as the reference the fuzzers compare evaluations against.

// node is one node of a reference join forest.
type node struct {
	rel
	parent   int
	children []int
}

func key(vals []int) string { return relstr.Tuple(vals).Key() }

// atomRelationRef is the reference (string-keyed, uncached) atom
// materialisation the pre-indexed runtime ran for every atom.
func atomRelationRef(a patom, db *relstr.Structure) rel {
	vars := a.distinctVars()
	pos := map[int]int{} // variable → first position
	for i, v := range a.args {
		if _, ok := pos[v]; !ok {
			pos[v] = i
		}
	}
	out := rel{vars: vars}
	seen := map[string]bool{}
tuples:
	for _, t := range db.Tuples(a.rel) {
		if len(t) != len(a.args) {
			continue
		}
		for i, v := range a.args {
			if t[pos[v]] != t[i] {
				continue tuples
			}
		}
		row := make([]int, len(vars))
		for i, v := range vars {
			row[i] = t[pos[v]]
		}
		k := key(row)
		if !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// buildJoinForestRef materialises the forest with atomRelationRef —
// one full string-keyed scan per atom, as before the pattern cache.
func buildJoinForestRef(atoms []patom, parent []int, db *relstr.Structure) []node {
	nodes := make([]node, len(atoms))
	for i, a := range atoms {
		nodes[i].rel = atomRelationRef(a, db)
		nodes[i].parent = parent[i]
	}
	for i, p := range parent {
		if p >= 0 {
			nodes[p].children = append(nodes[p].children, i)
		}
	}
	return nodes
}

// projectRef is the reference (string-keyed) projection of r onto the
// variables in want (in want order), deduplicated.
func projectRef(r rel, want []int) rel {
	idx := make([]int, len(want))
	for i, v := range want {
		idx[i] = indexOf(r.vars, v)
	}
	seen := map[string]bool{}
	out := rel{vars: append([]int{}, want...)}
	for _, row := range r.rows {
		vals := make([]int, len(want))
		for i, j := range idx {
			vals[i] = row[j]
		}
		k := key(vals)
		if !seen[k] {
			seen[k] = true
			out.rows = append(out.rows, vals)
		}
	}
	return out
}

// semijoinRef is the reference (string-keyed) semijoin: it keeps the
// rows of l that agree with some row of r on the shared variables.
func semijoinRef(l, r rel) rel {
	shared := sharedVars(l.vars, r.vars)
	if len(shared) == 0 {
		if len(r.rows) == 0 {
			return rel{vars: l.vars}
		}
		return l
	}
	rIdx := make([]int, len(shared))
	lIdx := make([]int, len(shared))
	for i, v := range shared {
		rIdx[i] = indexOf(r.vars, v)
		lIdx[i] = indexOf(l.vars, v)
	}
	present := map[string]bool{}
	buf := make([]int, len(shared))
	for _, row := range r.rows {
		for i, j := range rIdx {
			buf[i] = row[j]
		}
		present[key(buf)] = true
	}
	out := rel{vars: l.vars}
	for _, row := range l.rows {
		for i, j := range lIdx {
			buf[i] = row[j]
		}
		if present[key(buf)] {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// joinRef is the reference (string-keyed) natural join of l and r.
func joinRef(l, r rel) rel {
	shared := sharedVars(l.vars, r.vars)
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = indexOf(l.vars, v)
		rIdx[i] = indexOf(r.vars, v)
	}
	// r-only variables appended to l's.
	var rOnly []int
	var rOnlyIdx []int
	inL := map[int]bool{}
	for _, v := range l.vars {
		inL[v] = true
	}
	for j, v := range r.vars {
		if !inL[v] {
			rOnly = append(rOnly, v)
			rOnlyIdx = append(rOnlyIdx, j)
		}
	}
	// Hash r by shared key.
	buckets := map[string][][]int{}
	buf := make([]int, len(shared))
	for _, row := range r.rows {
		for i, j := range rIdx {
			buf[i] = row[j]
		}
		k := key(buf)
		buckets[k] = append(buckets[k], row)
	}
	out := rel{vars: append(append([]int{}, l.vars...), rOnly...)}
	seen := map[string]bool{}
	for _, lrow := range l.rows {
		for i, j := range lIdx {
			buf[i] = lrow[j]
		}
		for _, rrow := range buckets[key(buf)] {
			vals := make([]int, 0, len(out.vars))
			vals = append(vals, lrow...)
			for _, j := range rOnlyIdx {
				vals = append(vals, rrow[j])
			}
			k := key(vals)
			if !seen[k] {
				seen[k] = true
				out.rows = append(out.rows, vals)
			}
		}
	}
	return out
}

// semijoinPassesRef runs the leaves→roots and roots→leaves semijoin
// reductions in place over a join forest with the reference operators.
func semijoinPassesRef(ctx context.Context, nodes []node) error {
	var roots []int
	for i := range nodes {
		if nodes[i].parent == -1 {
			roots = append(roots, i)
		}
	}
	var post func(i int) error
	post = func(i int) error {
		for _, c := range nodes[i].children {
			if err := post(c); err != nil {
				return err
			}
		}
		if err := cqerr.Check(ctx); err != nil {
			return err
		}
		for _, c := range nodes[i].children {
			nodes[i].rel = semijoinRef(nodes[i].rel, nodes[c].rel)
		}
		return nil
	}
	var pre func(i int) error
	pre = func(i int) error {
		if err := cqerr.Check(ctx); err != nil {
			return err
		}
		for _, c := range nodes[i].children {
			nodes[c].rel = semijoinRef(nodes[c].rel, nodes[i].rel)
			if err := pre(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := post(r); err != nil {
			return err
		}
	}
	for _, r := range roots {
		if err := pre(r); err != nil {
			return err
		}
	}
	return nil
}

// solveTreeRef is the reference Yannakakis pipeline: semijoin
// reduction, bottom-up join with projection, cross product across
// components, head projection — all on the string-keyed operators the
// indexed runtime replaced.
func solveTreeRef(ctx context.Context, nodes []node, head []int) (Answers, error) {
	freeSet := map[int]bool{}
	for _, v := range head {
		freeSet[v] = true
	}
	roots := []int{}
	for i := range nodes {
		if nodes[i].parent == -1 {
			roots = append(roots, i)
		}
	}
	if err := semijoinPassesRef(ctx, nodes); err != nil {
		return nil, err
	}
	for i := range nodes {
		if len(nodes[i].rows) == 0 {
			return Answers{}, nil
		}
	}
	upRel := make([]rel, len(nodes))
	var solveErr error
	var solve func(i int) rel
	solve = func(i int) rel {
		if solveErr != nil {
			return rel{}
		}
		if solveErr = cqerr.Check(ctx); solveErr != nil {
			return rel{}
		}
		acc := nodes[i].rel
		for _, c := range nodes[i].children {
			acc = joinRef(acc, solve(c))
			if solveErr != nil {
				return rel{}
			}
		}
		keepSet := map[int]bool{}
		for _, v := range acc.vars {
			if freeSet[v] {
				keepSet[v] = true
			}
		}
		if p := nodes[i].parent; p != -1 {
			for _, v := range sharedVars(acc.vars, nodes[p].vars) {
				keepSet[v] = true
			}
		}
		var keep []int
		for _, v := range acc.vars {
			if keepSet[v] {
				keep = append(keep, v)
			}
		}
		upRel[i] = projectRef(acc, keep)
		return upRel[i]
	}
	total := rel{vars: nil, rows: [][]int{{}}}
	for _, r := range roots {
		rr := solve(r)
		if solveErr != nil {
			return nil, solveErr
		}
		if len(rr.rows) == 0 {
			return Answers{}, nil
		}
		total = joinRef(total, rr)
	}
	idx := make([]int, len(head))
	for i, v := range head {
		idx[i] = indexOf(total.vars, v)
	}
	seen := map[string]bool{}
	var out []relstr.Tuple
	for _, row := range total.rows {
		vals := make(relstr.Tuple, len(head))
		for i, j := range idx {
			vals[i] = row[j]
		}
		k := vals.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, vals)
		}
	}
	return sortAnswers(out), nil
}

// EvalBaseline evaluates the plan's query on db through the reference
// string-keyed pipeline. It returns exactly what Eval returns.
func (p *Plan) EvalBaseline(ctx context.Context, db *relstr.Structure) (Answers, error) {
	if p.mode == PlanYannakakis {
		nodes := buildJoinForestRef(p.atoms, p.jt.Parent, db)
		return solveTreeRef(ctx, nodes, p.tb.Dist)
	}
	return naiveEval(ctx, p.tb, db)
}
