// Package tw computes treewidth and tree decompositions. The paper's
// graph-based tractable classes TW(k) are defined through the treewidth
// of the query's Gaifman graph G(Q), built here from the query's
// hypergraph (Gaifman, AtMost); membership tests are exact.
//
// A graph keeps one neighbour set per vertex in the hypergraph
// package's vertex-set form, so it has any number of vertices. Edgeless
// graphs and forests (treewidth 0 and 1) are recognised at any size.
// Past those, the exact algorithm is the classic dynamic program over
// vertex subsets (Bodlaender–Fomin–Koster): dp[S] is the minimum width
// over elimination orderings that eliminate exactly S first, with
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
	"math/bits"
	"slices"
	"sort"

	"cqapprox/internal/hypergraph"
)

// MaxExactN bounds the vertex count for the exact subset DP.
const MaxExactN = 24

// Graph is a simple undirected graph on the vertices 0…N−1: row v of
// adj, W words long, is v's neighbour set, vertex u being bit u%64 of
// word u/64.
type Graph struct {
	N, W int
	adj  []uint64
}

// Gaifman returns the Gaifman graph of h: its vertices, each pair in a
// common edge adjacent. For the hypergraph of a tableau T_Q this is the
// paper's G(Q).
func Gaifman(h hypergraph.Hypergraph) *Graph {
	g := gaifman(h, nil)
	return &g
}

// gaifman builds the Gaifman graph of h in buf when it fits.
func gaifman(h hypergraph.Hypergraph, buf []uint64) Graph {
	g := Graph{N: h.N, W: h.W}
	if n := h.N * h.W; n <= cap(buf) {
		g.adj = buf[:n]
		clear(g.adj)
	} else {
		g.adj = make([]uint64, n)
	}
	for i := range h.NumEdges() {
		e := h.Edge(i)
		for k, x := range e {
			for ; x != 0; x &= x - 1 {
				row := g.row(k<<6 | bits.TrailingZeros64(x))
				for j, y := range e {
					row[j] |= y
				}
			}
		}
	}
	for v := 0; v < g.N; v++ {
		g.adj[v*g.W+v>>6] &^= 1 << uint(v&63) // loops are ignored
	}
	return g
}

// AtMost reports whether the Gaifman graph of h has treewidth at most
// k. It allocates nothing for a forest of at most 64 vertices.
func AtMost(h hypergraph.Hypergraph, k int) bool {
	var buf [64]uint64
	g := gaifman(h, buf[:0])
	return g.TreewidthAtMost(k)
}

// row returns v's neighbour set.
func (g *Graph) row(v int) []uint64 { return g.adj[v*g.W : (v+1)*g.W] }

// word0 returns v's neighbours below 64: its whole row in a graph of at
// most 64 vertices.
func (g *Graph) word0(v int) uint64 { return g.adj[v*g.W] }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, m := range g.adj {
		total += bits.OnesCount64(m)
	}
	return total / 2
}

// IsForest reports whether g has no cycles.
func (g *Graph) IsForest() bool {
	// A forest has exactly N - (#components) edges.
	return g.NumEdges() == g.N-g.components()
}

// components counts the connected components by a search over
// neighbour sets.
func (g *Graph) components() int {
	var buf [8]uint64
	sets := buf[:0]
	if 2*g.W > len(buf) {
		sets = make([]uint64, 0, 2*g.W)
	}
	sets = sets[:2*g.W]
	clear(sets)
	seen, next := sets[:g.W], sets[g.W:]
	n := 0
	for s := 0; s < g.N; s++ {
		if seen[s>>6]>>uint(s&63)&1 != 0 {
			continue
		}
		n++
		seen[s>>6] |= 1 << uint(s&63)
		next[s>>6] |= 1 << uint(s&63)
		// Words below k of next are empty.
		for k := s >> 6; k < g.W; {
			if next[k] == 0 {
				k++
				continue
			}
			v := k<<6 | bits.TrailingZeros64(next[k])
			next[k] &= next[k] - 1
			for j, x := range g.row(v) {
				nb := x &^ seen[j]
				seen[j] |= nb
				next[j] |= nb
				if nb != 0 && j < k {
					k = j
				}
			}
		}
	}
	return n
}

// qValue counts vertices outside R∪{v} reachable from v through
// internal vertices in R. g has at most 64 vertices.
func (g *Graph) qValue(r uint64, v int) int {
	visited := uint64(1) << uint(v)
	frontier := g.word0(v)
	reach := uint64(0)
	for {
		newInR := frontier & r &^ visited
		reach |= frontier &^ r &^ visited
		if newInR == 0 {
			break
		}
		visited |= newInR
		next := uint64(0)
		for m := newInR; m != 0; m &= m - 1 {
			next |= g.word0(bits.TrailingZeros64(m))
		}
		frontier = next
	}
	return bits.OnesCount64(reach)
}

// Treewidth returns the exact treewidth of g. A graph with no edges has
// treewidth 0 (the empty graph too, by convention here), any other
// forest treewidth 1, both at any size. Past those, the exact DP runs,
// and panics if g.N > MaxExactN.
func (g *Graph) Treewidth() int {
	switch {
	case g.NumEdges() == 0:
		return 0
	case g.IsForest():
		return 1
	}
	w, _ := g.treewidthDP()
	return w
}

// TreewidthAtMost reports whether tw(g) ≤ k. It answers without the
// exact DP for k ≥ N−1, for an edgeless graph and for a forest.
func (g *Graph) TreewidthAtMost(k int) bool {
	switch {
	case k < 0:
		return g.N == 0
	case g.N == 0 || k >= g.N-1 || g.NumEdges() == 0:
		return true
	case g.IsForest():
		return true
	case k == 1:
		return false
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
	size := 1 << uint(n)
	dp := make([]int8, size)
	choice := make([]int8, size)
	for s := 1; s < size; s++ {
		best := int8(127)
		bestV := int8(-1)
		for m := uint64(s); m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
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
		for v := u + 1; v < g.N; v++ {
			if g.row(u)[v>>6]>>uint(v&63)&1 == 0 {
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
