// Package tw computes exact treewidth and tree decompositions of small
// graphs. The paper's graph-based tractable classes TW(k) are defined
// through the treewidth of the query's Gaifman graph G(Q); membership
// tests here are exact.
//
// The exact algorithm is the classic dynamic program over vertex
// subsets (Bodlaender–Fomin–Koster): dp[S] is the minimum width over
// elimination orderings that eliminate exactly S first, with
// dp[S] = min_{v∈S} max(dp[S∖{v}], Q(S∖{v}, v)), where Q(R, v) counts
// the vertices outside R∪{v} reachable from v through R. It runs in
// O(2ⁿ·n·(n+m)) time and O(2ⁿ) space and is limited to n ≤ MaxExactN
// vertices — far beyond any tableau arising in the experiments.
//
// Evaluation plans need a decomposition of every cyclic query they
// compile, fast and of any size, and use GreedyDecompose: a greedy
// elimination order, polynomial and not width-optimal.
package tw

import (
	"fmt"
	"slices"
	"sort"

	"cqapprox/internal/relstr"
)

// MaxExactN bounds the vertex count for the exact subset DP.
const MaxExactN = 24

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N   int
	adj []uint64 // adjacency bitmasks; requires N ≤ 64
}

// NewGraph returns an empty graph on n vertices (n ≤ 64).
func NewGraph(n int) *Graph {
	if n > 64 {
		panic(fmt.Sprintf("tw: graph too large (%d > 64 vertices)", n))
	}
	return &Graph{N: n, adj: make([]uint64, n)}
}

// AddEdge inserts the undirected edge {u, v}; loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u] |= 1 << uint(v)
	g.adj[v] |= 1 << uint(u)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return u != v && g.adj[u]&(1<<uint(v)) != 0 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, m := range g.adj {
		total += popcount(m)
	}
	return total / 2
}

// Clone returns a copy of g.
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.N)
	copy(c.adj, g.adj)
	return c
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// FromStructure builds the Gaifman graph of a relational structure:
// one vertex per active-domain element, an edge between every pair of
// distinct elements co-occurring in some tuple. It returns the graph
// and the element→vertex mapping. For a tableau T_Q this is exactly
// the paper's G(Q).
func FromStructure(s *relstr.Structure) (*Graph, map[int]int) {
	dom := s.Domain()
	id := make(map[int]int, len(dom))
	for i, e := range dom {
		id[e] = i
	}
	g := NewGraph(len(dom))
	for _, rel := range s.Relations() {
		for _, t := range s.Tuples(rel) {
			for i := 0; i < len(t); i++ {
				for j := i + 1; j < len(t); j++ {
					if t[i] != t[j] {
						g.AddEdge(id[t[i]], id[t[j]])
					}
				}
			}
		}
	}
	return g, id
}

// FromMasks builds the Gaifman graph on vertices 0…n−1 of the edges
// given as vertex bitmasks: the vertices of each edge are pairwise
// adjacent.
func FromMasks(n int, edges []uint64) *Graph {
	g := NewGraph(n)
	for _, m := range edges {
		for r := m; r != 0; r &= r - 1 {
			v := trailingZeros(r)
			g.adj[v] |= m &^ (1 << uint(v))
		}
	}
	return g
}

// IsForest reports whether g has no cycles.
func (g *Graph) IsForest() bool {
	// A forest has exactly N - (#components) edges.
	return g.NumEdges() == g.N-g.components()
}

func (g *Graph) components() int {
	var seen uint64
	n := 0
	for s := 0; s < g.N; s++ {
		if seen>>uint(s)&1 != 0 {
			continue
		}
		n++
		seen |= 1 << uint(s)
		for next := uint64(1) << uint(s); next != 0; {
			v := trailingZeros(next)
			nb := g.adj[v] &^ seen
			seen |= nb
			next = next&^(1<<uint(v)) | nb
		}
	}
	return n
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// qValue counts vertices outside R∪{v} reachable from v through
// internal vertices in R.
func (g *Graph) qValue(r uint64, v int) int {
	visited := uint64(1) << uint(v)
	frontier := g.adj[v]
	reach := uint64(0)
	for {
		newInR := frontier & r &^ visited
		reach |= frontier &^ r &^ visited
		if newInR == 0 {
			break
		}
		visited |= newInR
		next := uint64(0)
		m := newInR
		for m != 0 {
			w := trailingZeros(m)
			m &= m - 1
			next |= g.adj[w]
		}
		frontier = next
	}
	return popcount(reach)
}

// Treewidth returns the exact treewidth of g. A graph with no edges has
// treewidth 0; the empty graph has treewidth 0 by convention here.
// Panics if g.N > MaxExactN.
func (g *Graph) Treewidth() int {
	w, _ := g.treewidthDP()
	return w
}

// TreewidthAtMost reports whether tw(g) ≤ k, with fast paths for k ≥
// N−1 and k = 1.
func (g *Graph) TreewidthAtMost(k int) bool {
	if k < 0 {
		return g.N == 0
	}
	if g.N == 0 || k >= g.N-1 {
		return true
	}
	if g.NumEdges() == 0 {
		return true
	}
	if k == 1 {
		return g.IsForest()
	}
	return g.Treewidth() <= k
}

// treewidthDP runs the subset DP, returning the treewidth and an
// elimination order achieving it (vertices in elimination sequence).
func (g *Graph) treewidthDP() (int, []int) {
	n := g.N
	if n == 0 {
		return 0, nil
	}
	if n > MaxExactN {
		panic(fmt.Sprintf("tw: exact treewidth limited to %d vertices, got %d", MaxExactN, n))
	}
	if g.NumEdges() == 0 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		return 0, order
	}
	size := 1 << uint(n)
	dp := make([]int8, size)
	choice := make([]int8, size)
	for s := 1; s < size; s++ {
		best := int8(127)
		bestV := int8(-1)
		m := uint64(s)
		for m != 0 {
			v := trailingZeros(m)
			m &= m - 1
			prev := s &^ (1 << uint(v))
			q := g.qValue(uint64(prev), v)
			cost := dp[prev]
			if int8(q) > cost {
				cost = int8(q)
			}
			if cost < best {
				best = cost
				bestV = int8(v)
			}
		}
		dp[s] = best
		choice[s] = bestV
	}
	// Reconstruct elimination order: choice[S] is eliminated last in S.
	order := make([]int, n)
	s := size - 1
	for i := n - 1; i >= 0; i-- {
		v := int(choice[s])
		order[i] = v
		s &^= 1 << uint(v)
	}
	return int(dp[size-1]), order
}

// Decomposition is a tree decomposition: Bags[i] is a sorted vertex
// set, and Tree lists the decomposition-tree edges between bag indices.
type Decomposition struct {
	Bags  [][]int
	Tree  [][2]int
	Width int
}

// Valid checks the three tree-decomposition conditions against g:
// every vertex appears in a bag, every edge is inside some bag, and
// each vertex's bags form a connected subtree.
func (d Decomposition) Valid(g *Graph) bool {
	inBag := make([]bool, g.N)
	for _, b := range d.Bags {
		for _, v := range b {
			inBag[v] = true
		}
	}
	for v := 0; v < g.N; v++ {
		if !inBag[v] {
			return false
		}
	}
	for u := 0; u < g.N; u++ {
		m := g.adj[u]
		for m != 0 {
			v := trailingZeros(m)
			m &= m - 1
			if v < u {
				continue
			}
			found := false
			for _, b := range d.Bags {
				hasU, hasV := false, false
				for _, x := range b {
					if x == u {
						hasU = true
					}
					if x == v {
						hasV = true
					}
				}
				if hasU && hasV {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	// Connectivity per vertex.
	adjB := make(map[int][]int)
	for _, e := range d.Tree {
		adjB[e[0]] = append(adjB[e[0]], e[1])
		adjB[e[1]] = append(adjB[e[1]], e[0])
	}
	for v := 0; v < g.N; v++ {
		var with []int
		for i, b := range d.Bags {
			for _, x := range b {
				if x == v {
					with = append(with, i)
					break
				}
			}
		}
		if len(with) <= 1 {
			continue
		}
		inSet := map[int]bool{}
		for _, i := range with {
			inSet[i] = true
		}
		seen := map[int]bool{with[0]: true}
		stack := []int{with[0]}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range adjB[b] {
				if inSet[nb] && !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
		if len(seen) != len(with) {
			return false
		}
	}
	return true
}

// StructureTreewidth returns the treewidth of the Gaifman graph of s —
// the treewidth of a CQ whose tableau is s.
func StructureTreewidth(s *relstr.Structure) int {
	g, _ := FromStructure(s)
	return g.Treewidth()
}

// StructureTreewidthAtMost reports tw(G(s)) ≤ k.
func StructureTreewidthAtMost(s *relstr.Structure, k int) bool {
	g, _ := FromStructure(s)
	return g.TreewidthAtMost(k)
}

// GreedyDecompose returns a tree decomposition of the graph on
// vertices 0..n-1 with the given edges (loops ignored), built from a
// greedy elimination order: each step eliminates a vertex of minimum
// degree in the current fill graph, ties broken by minimum fill-in and
// then by lowest id. It runs in polynomial time on any number of
// vertices and is not width-optimal — the exact subset DP is, but only
// up to MaxExactN vertices. A bag contained in a neighbouring bag is
// contracted into it, and Tree is a forest: each edge is a (child,
// parent) pair of the elimination tree, and disconnected components of
// the graph stay disconnected.
func GreedyDecompose(n int, edges [][2]int) Decomposition {
	adj := make([][]bool, n)
	for v := range adj {
		adj[v] = make([]bool, n)
	}
	for _, e := range edges {
		if e[0] != e[1] {
			adj[e[0]][e[1]] = true
			adj[e[1]][e[0]] = true
		}
	}
	alive := make([]bool, n)
	for v := range alive {
		alive[v] = true
	}
	// nbrs appends v's neighbours in the current fill graph to buf.
	nbrs := func(buf []int, v int) []int {
		for w, ok := range adj[v] {
			if ok && alive[w] {
				buf = append(buf, w)
			}
		}
		return buf
	}
	fill := func(ns []int) int {
		f := 0
		for a := range ns {
			for b := a + 1; b < len(ns); b++ {
				if !adj[ns[a]][ns[b]] {
					f++
				}
			}
		}
		return f
	}
	bags := make([][]int, n)  // bags[i]: the bag of the i-th eliminated vertex
	later := make([][]int, n) // its neighbours at elimination, all eliminated later
	pos := make([]int, n)     // vertex → elimination step
	var buf []int
	for i := 0; i < n; i++ {
		best, bestDeg, bestFill := -1, 0, 0
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			buf = nbrs(buf[:0], v)
			if best >= 0 && len(buf) > bestDeg {
				continue
			}
			f := fill(buf)
			if best < 0 || len(buf) < bestDeg || f < bestFill {
				best, bestDeg, bestFill = v, len(buf), f
			}
		}
		bag := nbrs(make([]int, 1, bestDeg+1), best)
		bag[0] = best
		ns := bag[1:]
		for a := range ns {
			for b := a + 1; b < len(ns); b++ {
				adj[ns[a]][ns[b]] = true
				adj[ns[b]][ns[a]] = true
			}
		}
		alive[best] = false
		pos[best] = i
		later[i] = slices.Clone(ns)
		sort.Ints(bag)
		bags[i] = bag
	}
	// The parent of bag i is the bag of its soonest-eliminated later
	// neighbour; a bag with none roots a component.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
		for _, w := range later[i] {
			if parent[i] == -1 || pos[w] < parent[i] {
				parent[i] = pos[w]
			}
		}
	}
	// Contract every tree edge whose one bag lies inside the other; the
	// larger bag takes over the smaller one's links.
	dead := make([]bool, n)
	merge := func(from, into int) {
		dead[from] = true
		if parent[into] == from {
			parent[into] = parent[from]
		}
		for j := range parent {
			if parent[j] == from {
				parent[j] = into
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			p := parent[i]
			switch {
			case dead[i] || p < 0:
			case subset(bags[i], bags[p]):
				merge(i, p)
				changed = true
			case subset(bags[p], bags[i]):
				merge(p, i)
				changed = true
			}
		}
	}
	id := make([]int, n)
	var d Decomposition
	for i := 0; i < n; i++ {
		if !dead[i] {
			id[i] = len(d.Bags)
			d.Bags = append(d.Bags, bags[i])
			d.Width = max(d.Width, len(bags[i])-1)
		}
	}
	for i := 0; i < n; i++ {
		if !dead[i] && parent[i] >= 0 {
			d.Tree = append(d.Tree, [2]int{id[i], id[parent[i]]})
		}
	}
	return d
}

// subset reports whether sorted a ⊆ sorted b.
func subset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
	}
	return true
}
