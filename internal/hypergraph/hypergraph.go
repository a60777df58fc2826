// Package hypergraph implements query hypergraphs and the classical
// acyclicity machinery: the GYO reduction, join-tree construction, and
// the closure operations (induced subhypergraphs, edge extensions) that
// Section 6 of the paper uses to prove the existence of
// hypergraph-based approximations.
package hypergraph

import (
	"math/bits"
	"sort"

	"cqapprox/internal/relstr"
)

// Hypergraph is a finite hypergraph. Edges are stored per original
// index (one per query atom), so duplicates are kept: GYO and join
// trees operate on atom indexes directly.
type Hypergraph struct {
	Edges [][]int // each sorted ascending; may repeat
}

// New builds a hypergraph from the given edges (each edge is
// deduplicated and sorted; empty edges are invalid and panic).
func New(edges ...[]int) *Hypergraph {
	h := &Hypergraph{}
	for _, e := range edges {
		h.AddEdge(e)
	}
	return h
}

// AddEdge appends an edge (set of vertices).
func (h *Hypergraph) AddEdge(vs []int) {
	if len(vs) == 0 {
		panic("hypergraph: empty edge")
	}
	set := map[int]bool{}
	for _, v := range vs {
		set[v] = true
	}
	e := make([]int, 0, len(set))
	for v := range set {
		e = append(e, v)
	}
	sort.Ints(e)
	h.Edges = append(h.Edges, e)
}

// FromStructure builds the hypergraph of a structure (one edge per
// tuple, vertices are the tuple's distinct elements). For a tableau T_Q
// this is the paper's H(Q).
func FromStructure(s *relstr.Structure) *Hypergraph {
	h := &Hypergraph{}
	for _, rel := range s.Relations() {
		for _, t := range s.Tuples(rel) {
			h.AddEdge([]int(t))
		}
	}
	return h
}

// Vertices returns the sorted vertex set.
func (h *Hypergraph) Vertices() []int {
	set := map[int]bool{}
	for _, e := range h.Edges {
		for _, v := range e {
			set[v] = true
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// NumEdges returns the number of edges (atoms).
func (h *Hypergraph) NumEdges() int { return len(h.Edges) }

// Induced returns the induced subhypergraph on keep: each edge is
// intersected with keep, empty intersections dropped (the paper's
// closure condition #1 in Section 6).
func (h *Hypergraph) Induced(keep map[int]bool) *Hypergraph {
	out := &Hypergraph{}
	for _, e := range h.Edges {
		var ne []int
		for _, v := range e {
			if keep[v] {
				ne = append(ne, v)
			}
		}
		if len(ne) > 0 {
			out.AddEdge(ne)
		}
	}
	return out
}

// ExtendEdge returns a copy of h in which edge i is extended with the
// fresh vertices vs (the paper's closure condition #2). The vertices
// must not already occur in h.
func (h *Hypergraph) ExtendEdge(i int, vs ...int) *Hypergraph {
	out := &Hypergraph{}
	for j, e := range h.Edges {
		if j == i {
			out.AddEdge(append(append([]int{}, e...), vs...))
		} else {
			out.AddEdge(e)
		}
	}
	return out
}

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
func (h *Hypergraph) GYO(head []int) (JoinTree, bool) {
	n := len(h.Edges)
	jt := JoinTree{Parent: make([]int, n)}
	for i := range jt.Parent {
		jt.Parent[i] = -1
	}
	if n == 0 {
		return jt, true
	}
	work := make([]map[int]bool, n)
	for i, e := range h.Edges {
		work[i] = map[int]bool{}
		for _, v := range e {
			work[i][v] = true
		}
	}
	isHead := map[int]bool{}
	for _, v := range head {
		isHead[v] = true
	}
	alive := make([]bool, n)
	heads := make([]int, n) // per edge, its original head vertices
	for i, e := range h.Edges {
		alive[i] = true
		for _, v := range e {
			if isHead[v] {
				heads[i]++
			}
		}
	}
	for {
		changed := false
		// (a) ear vertices: occurrence count 1 among alive edges.
		occ := map[int]int{}
		for i := range work {
			if !alive[i] {
				continue
			}
			for v := range work[i] {
				occ[v]++
			}
		}
		for i := range work {
			if !alive[i] {
				continue
			}
			for v := range work[i] {
				if occ[v] == 1 {
					delete(work[i], v)
					occ[v] = 0
					changed = true
				}
			}
		}
		// (b) subsumed edges; deterministic order. An emptied edge is
		// its component's root, never subsumed.
		for i := 0; i < n; i++ {
			if !alive[i] || len(work[i]) == 0 {
				continue
			}
			w := -1
			for j := 0; j < n; j++ {
				if i != j && alive[j] && subset(work[i], work[j]) && (w < 0 || heads[j] > heads[w]) {
					w = j
				}
			}
			if w >= 0 {
				alive[i] = false
				jt.Parent[i] = w
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Acyclic iff every remaining edge is empty (one per connected
	// component, fully ear-reduced).
	for i := range work {
		if alive[i] && len(work[i]) > 0 {
			return JoinTree{}, false
		}
	}
	return jt, true
}

func subset(a, b map[int]bool) bool {
	if len(a) > len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// IsAcyclic reports α-acyclicity of h.
func (h *Hypergraph) IsAcyclic() bool {
	_, ok := h.GYO(nil)
	return ok
}

// subsumedMask reports whether edge i of edges is contained in another
// edge.
func subsumedMask(edges []uint64, i int) bool {
	for j, f := range edges {
		if j != i && edges[i]&^f == 0 {
			return true
		}
	}
	return false
}

// FromMasks builds the hypergraph with one edge per vertex bitmask.
func FromMasks(edges []uint64) *Hypergraph {
	h := &Hypergraph{Edges: make([][]int, 0, len(edges))}
	for _, m := range edges {
		e := make([]int, 0, bits.OnesCount64(m))
		for ; m != 0; m &= m - 1 {
			e = append(e, bits.TrailingZeros64(m))
		}
		h.Edges = append(h.Edges, e)
	}
	return h
}

// AcyclicMasks is GYO over edges given as vertex bitmasks, one per
// atom (duplicates and empty edges allowed). It repeatedly strips ear
// vertices — those in exactly one live edge — and removes edges
// contained in another live edge; the hypergraph is α-acyclic iff no
// non-empty edge survives. edges is not modified.
func AcyclicMasks(edges []uint64) bool {
	var buf [32]uint64
	live := append(buf[:0], edges...)
	for {
		// Ear vertices: seen in exactly one live edge.
		var once, twice uint64
		for _, e := range live {
			twice |= once & e
			once |= e
		}
		ears := once &^ twice
		changed := false
		for i := range live {
			if live[i]&ears != 0 {
				live[i] &^= ears
				changed = true
			}
		}
		// Subsumed edges, one at a time: dropping an edge never makes
		// another one subsumed, so a single pass finds them all.
		for i := 0; i < len(live); {
			if subsumedMask(live, i) {
				last := len(live) - 1
				live[i] = live[last]
				live = live[:last]
				changed = true
				continue
			}
			i++
		}
		if !changed {
			break
		}
	}
	for _, e := range live {
		if e != 0 {
			return false
		}
	}
	return true
}
