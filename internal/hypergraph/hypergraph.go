// Package hypergraph implements query hypergraphs and the classical
// acyclicity machinery: the GYO reduction, whose verdict is the α-
// acyclicity test and whose witnesses form a join forest.
//
// A hypergraph has one form: its edges are vertex sets over dense
// vertex ids, one run of uint64 words per edge, laid end to end. The
// approximation search hands a candidate's atoms to the class tests in
// this form without copying, the planner builds it from a query's atom
// variables, and the treewidth and hypertree-width solvers read it.
package hypergraph

import "math/bits"

// Words returns the number of words of a vertex set over n vertices:
// ⌈n/64⌉, and at least one.
func Words(n int) int { return max(1, (n+63)/64) }

// Hypergraph is a hypergraph over the vertices 0…N−1. Edge i is the
// vertex set E[i·W:(i+1)·W], where vertex v is bit v%64 of word v/64
// and W ≥ Words(N). Edges are kept per original index (one per query
// atom), so they may repeat, and may be empty.
type Hypergraph struct {
	N, W int
	E    []uint64
}

// New returns the hypergraph over the vertices 0…n−1 with one edge per
// vertex list, each vertex below n.
func New(n int, edges ...[]int) Hypergraph {
	h := Hypergraph{N: n, W: Words(n)}
	h.E = make([]uint64, len(edges)*h.W)
	for i, e := range edges {
		for _, v := range e {
			h.E[i*h.W+v>>6] |= 1 << uint(v&63)
		}
	}
	return h
}

// NumEdges returns the number of edges (atoms).
func (h Hypergraph) NumEdges() int { return len(h.E) / h.W }

// Edge returns edge i's vertex set.
func (h Hypergraph) Edge(i int) []uint64 { return h.E[i*h.W : (i+1)*h.W : (i+1)*h.W] }

// JoinTree is a join forest over edge indexes: Parent[i] is the parent
// of edge i, or -1 for roots, one root per tree. A valid join tree
// satisfies the connectedness condition: for every vertex, the edges
// containing it form a connected subtree.
type JoinTree struct {
	Parent []int
}

// GYO runs the Graham–Yu–Özsoyoğlu reduction and reports whether h is
// α-acyclic; when it is, a join forest over the original edge indexes
// is returned, with one tree per connected component of h. The
// reduction repeatedly (a) deletes "ear vertices" that occur in a
// single remaining edge and (b) deletes edges contained in another
// remaining edge, recording the witness as the join-tree parent. Among
// several witnesses the parent is the one whose original edge holds the
// most vertices of head, ties going to the lowest index, so edges
// without head vertices hang off the head-holding ones rather than
// chaining among themselves. An edge whose remaining vertices are all
// gone shares none with any other remaining edge: it is the last edge
// of its component, and roots that component's tree. The hypergraph is
// acyclic iff every remaining edge empties out.
func (h Hypergraph) GYO(head []int) (JoinTree, bool) {
	jt := JoinTree{Parent: make([]int, h.NumEdges())}
	var hs []uint64
	if len(head) > 0 {
		hs = make([]uint64, h.W)
		for _, v := range head {
			hs[v>>6] |= 1 << uint(v&63)
		}
	}
	if !h.gyo(hs, jt.Parent) {
		return JoinTree{}, false
	}
	return jt, true
}

// Acyclic reports whether h is α-acyclic: the verdict of GYO, without
// the forest. It allocates nothing while h has at most 32 edge words.
func (h Hypergraph) Acyclic() bool { return h.gyo(nil, nil) }

// gyo runs the reduction with head vertex set head (nil: none) and
// records each subsumed edge's witness in parent, when parent is not
// nil. Without parent it only gives the verdict, and head is ignored.
func (h Hypergraph) gyo(head []uint64, parent []int) bool {
	w, m := h.W, len(h.E)
	if w > 1 {
		m /= w
	}
	// The remaining edges, word-major: word k of the x-th of the n
	// remaining is work[k·m+x]. A one-word hypergraph is one column, and
	// past one word, the first word filters every subset test. While
	// parents are recorded, the remaining edges stay in index order and
	// the x-th is edge idx[x].
	var wordBuf [32]uint64
	work := wordBuf[:]
	if len(h.E) > len(wordBuf) {
		work = make([]uint64, len(h.E))
	}
	work = work[:len(h.E)]
	if w == 1 {
		copy(work, h.E)
	} else {
		for p, x := range h.E {
			work[p%w*m+p/w] = x
		}
	}
	var idx, heads []int // heads[i]: edge i's original count of head vertices
	if parent != nil {
		idx = make([]int, m)
		for i := range idx {
			idx[i], parent[i] = i, -1
		}
		if head != nil {
			heads = make([]int, m)
			for p, x := range h.E {
				heads[p/w] += bits.OnesCount64(x & head[p%w])
			}
		}
	}
	n := m
	for changed := true; changed; {
		changed = false
		// (a) ear vertices: in exactly one remaining edge.
		for k := 0; k < w; k++ {
			col := work[k*m : k*m+n]
			var once, twice uint64
			for _, x := range col {
				twice |= once & x
				once |= x
			}
			if ears := once &^ twice; ears != 0 {
				for x := range col {
					col[x] &^= ears
				}
				changed = true
			}
		}
		// (b) subsumed edges, in index order. An emptied edge shares no
		// vertex with another remaining edge: it roots its component's
		// tree and leaves the reduction.
		for x := 0; x < n; {
			e := work[x]
			if e != 0 || w > 1 && !emptyAt(work, m, w, x) {
				// The witness: among the remaining edges containing the
				// x-th, the one whose original edge holds the most head
				// vertices, the lowest among equals.
				wit := -1
				for y := superset(work[:n], e, 0, x); y >= 0; y = superset(work[:n], e, y+1, x) {
					if w > 1 && !subsetAt(work, m, w, x, y) {
						continue
					}
					if heads == nil {
						wit = y
						break
					}
					if wit < 0 || heads[idx[y]] > heads[idx[wit]] {
						wit = y
					}
				}
				if wit < 0 {
					x++
					continue
				}
				if parent != nil {
					parent[idx[x]] = idx[wit]
				}
			}
			// Drop the x-th edge: shift the rest down while parents are
			// recorded, else move the last one into its place.
			n--
			for k := 0; k < len(work); k += m {
				if col := work[k : k+n+1]; parent != nil {
					copy(col[x:], col[x+1:])
				} else {
					col[x] = col[n]
				}
			}
			if parent != nil {
				copy(idx[x:n], idx[x+1:n+1])
			}
			changed = true
		}
	}
	return n == 0
}

// emptyAt reports whether the x-th remaining edge is empty past its
// first word; work holds w words per edge in columns of stride m.
func emptyAt(work []uint64, m, w, x int) bool {
	for k := 1; k < w; k++ {
		if work[k*m+x] != 0 {
			return false
		}
	}
	return true
}

// subsetAt reports whether the x-th remaining edge is contained in the
// y-th past their first words.
func subsetAt(work []uint64, m, w, x, y int) bool {
	for k := 1; k < w; k++ {
		if work[k*m+x]&^work[k*m+y] != 0 {
			return false
		}
	}
	return true
}

// superset returns the first position y ≥ from, other than x, whose
// first word holds e, or -1.
func superset(col []uint64, e uint64, from, x int) int {
	for y := from; y < len(col); y++ {
		if col[y]&e == e && y != x {
			return y
		}
	}
	return -1
}
