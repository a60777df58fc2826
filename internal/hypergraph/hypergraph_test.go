package hypergraph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
)

func TestAcyclicBasics(t *testing.T) {
	// Single edge.
	if !New([]int{0, 1, 2}).IsAcyclic() {
		t.Fatal("single edge is acyclic")
	}
	// Path of edges.
	if !New([]int{0, 1}, []int{1, 2}, []int{2, 3}).IsAcyclic() {
		t.Fatal("edge path is acyclic")
	}
	// Triangle.
	if New([]int{0, 1}, []int{1, 2}, []int{2, 0}).IsAcyclic() {
		t.Fatal("triangle is cyclic")
	}
	// Paper's example: triangle plus covering 3-edge is acyclic.
	if !New([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2}).IsAcyclic() {
		t.Fatal("triangle + covering edge is acyclic (paper §6)")
	}
	// α-acyclicity example: "fan" R(x,y,z), S(z,w).
	if !New([]int{0, 1, 2}, []int{2, 3}).IsAcyclic() {
		t.Fatal("fan is acyclic")
	}
}

func TestAcyclicDuplicatesAndLoops(t *testing.T) {
	// Duplicate edges (two identical atoms) stay acyclic.
	if !New([]int{0, 1}, []int{0, 1}).IsAcyclic() {
		t.Fatal("duplicate edges are acyclic")
	}
	// Single-vertex edge (loop atom E(x,x)).
	if !New([]int{0}, []int{0, 1}).IsAcyclic() {
		t.Fatal("loop edge is acyclic")
	}
}

func TestCycleOfLengthFour(t *testing.T) {
	if New([]int{0, 1}, []int{1, 2}, []int{2, 3}, []int{3, 0}).IsAcyclic() {
		t.Fatal("C4 hypergraph is cyclic")
	}
}

func TestBermanCyclicTernary(t *testing.T) {
	// The tableau of Q():-R(x,u,y),R(y,v,z),R(z,w,x) (paper intro):
	// edges {x,u,y},{y,v,z},{z,w,x} form a β-cycle; α-cyclic as well.
	q := cq.MustParse("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)")
	if FromStructure(q.Tableau().S).IsAcyclic() {
		t.Fatal("ternary cycle query should be cyclic")
	}
	// Example 6.6's Q'3 = same + R(x1,x3,x5): acyclic.
	q3 := cq.MustParse("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x1,x3,x5)")
	if !FromStructure(q3.Tableau().S).IsAcyclic() {
		t.Fatal("Q'3 of Example 6.6 should be acyclic")
	}
}

func TestJoinTreeValid(t *testing.T) {
	cases := []struct {
		h     *Hypergraph
		roots int
	}{
		{New([]int{0, 1, 2}, []int{2, 3}, []int{3, 4, 5}), 1},
		{New([]int{0, 1}, []int{1, 2}, []int{1, 3}), 1},
		{New([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2}), 1},
		{New([]int{0}, []int{0, 1}, []int{0, 1}), 1},
		// Disconnected: one tree per component.
		{New([]int{0, 1}, []int{5, 6}), 2},
		{New([]int{0, 1}, []int{5, 6}, []int{1, 2}, []int{6}), 2},
	}
	for i, c := range cases {
		jt, ok := c.h.GYO(nil)
		if !ok {
			t.Fatalf("case %d should be acyclic", i)
		}
		if !validJoinTree(c.h, jt) {
			t.Fatalf("case %d: invalid join tree %v", i, jt.Parent)
		}
		roots := 0
		for _, p := range jt.Parent {
			if p == -1 {
				roots++
			}
		}
		if roots != c.roots {
			t.Fatalf("case %d: join tree %v has %d roots, want %d", i, jt.Parent, roots, c.roots)
		}
	}
	// A parent array with a cycle is no forest, even where every
	// vertex's edges are adjacent.
	h := New([]int{0, 1}, []int{1, 2}, []int{2, 3})
	for _, parent := range [][]int{{1, 0, 1}, {1, 2, 0}, {1, 2, 1}} {
		if validJoinTree(h, JoinTree{Parent: parent}) {
			t.Fatalf("parent array %v has a cycle, yet validates", parent)
		}
	}
	if validJoinTree(h, JoinTree{Parent: []int{1, 2, 3}}) {
		t.Fatal("a parent out of range validates")
	}
}

// TestGYOPrefersHeadWitness pins the witness rule: an edge subsumed by
// several others hangs off the one holding the most head vertices, the
// lowest index among equals. Without a head the leaves {1,3} and {1,4}
// chain toward the last edge; with head {0,2} every edge hangs off
// {1,2}, the only witness holding a head vertex.
func TestGYOPrefersHeadWitness(t *testing.T) {
	h := New([]int{0, 1}, []int{1, 3}, []int{1, 4}, []int{1, 2})
	for _, c := range []struct {
		head   []int
		parent []int
	}{
		{nil, []int{1, 2, 3, -1}},
		{[]int{0, 2}, []int{3, 3, 3, -1}},
		{[]int{4}, []int{2, 2, 3, -1}},
	} {
		jt, ok := h.GYO(c.head)
		if !ok || !slices.Equal(jt.Parent, c.parent) {
			t.Fatalf("head %v: parents %v (acyclic %v), want %v", c.head, jt.Parent, ok, c.parent)
		}
	}
}

func TestInduced(t *testing.T) {
	h := New([]int{0, 1, 2}, []int{2, 3})
	keep := map[int]bool{0: true, 1: true, 2: true}
	ind := h.Induced(keep)
	if len(ind.Edges) != 2 {
		t.Fatalf("induced edges = %v", ind.Edges)
	}
	// The paper's example: induced subhypergraph keeps e∩V'.
	if len(ind.Edges[1]) != 1 || ind.Edges[1][0] != 2 {
		t.Fatalf("induced second edge = %v, want [2]", ind.Edges[1])
	}
}

func TestExtendEdge(t *testing.T) {
	h := New([]int{0, 1})
	e := h.ExtendEdge(0, 7, 8)
	if len(e.Edges[0]) != 4 {
		t.Fatalf("extended edge = %v", e.Edges[0])
	}
	if !e.IsAcyclic() {
		t.Fatal("edge extension of a single edge stays acyclic")
	}
}

// Closure checks from the paper (Section 6): acyclic hypergraphs are
// closed under induced subhypergraphs and edge extensions, but not
// under plain subhypergraphs.
func TestAcyclicClosureProperties(t *testing.T) {
	// Not closed under subhypergraphs: drop the covering 3-edge.
	full := New([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2})
	if !full.IsAcyclic() {
		t.Fatal("setup: full should be acyclic")
	}
	sub := New([]int{0, 1}, []int{1, 2}, []int{0, 2})
	if sub.IsAcyclic() {
		t.Fatal("sub (triangle) must be cyclic: acyclicity is not subhypergraph-closed")
	}
	// Closed under induced: the only induced subhypergraph of full
	// containing all 2-edges is full itself (paper's remark); check a
	// couple of induced subhypergraphs are acyclic.
	for _, keep := range []map[int]bool{
		{0: true, 1: true},
		{0: true, 1: true, 2: true},
		{1: true},
	} {
		if !full.Induced(keep).IsAcyclic() {
			t.Fatalf("induced on %v should be acyclic", keep)
		}
	}
}

// Property: random acyclic constructions (built as hyper-trees) pass
// GYO, and their join trees validate.
func TestQuickHyperTreesAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a random join-tree-shaped hypergraph: each new edge
		// shares a random subset of one existing edge plus fresh
		// vertices.
		h := &Hypergraph{}
		fresh := 0
		take := func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = fresh
				fresh++
			}
			return out
		}
		h.AddEdge(take(1 + rng.Intn(3)))
		for i := 0; i < 4; i++ {
			base := h.Edges[rng.Intn(len(h.Edges))]
			var shared []int
			for _, v := range base {
				if rng.Intn(2) == 0 {
					shared = append(shared, v)
				}
			}
			edge := append(shared, take(1+rng.Intn(2))...)
			h.AddEdge(edge)
		}
		var head []int
		for _, v := range h.Vertices() {
			if rng.Intn(3) == 0 {
				head = append(head, v)
			}
		}
		jt, ok := h.GYO(head)
		return ok && validJoinTree(h, jt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// validJoinTree checks that jt is a forest over h's edges — every
// parent chain ends at a root — satisfying the join-tree connectedness
// condition: for every vertex v, the set of edges containing v induces
// a connected subtree.
func validJoinTree(h *Hypergraph, jt JoinTree) bool {
	n := len(h.Edges)
	if len(jt.Parent) != n {
		return false
	}
	for _, p := range jt.Parent {
		if p < -1 || p >= n {
			return false
		}
	}
	// Adjacency of the forest; a parent chain longer than n has a cycle.
	adj := make([][]int, n)
	for i, p := range jt.Parent {
		if p == -1 {
			continue
		}
		adj[i] = append(adj[i], p)
		adj[p] = append(adj[p], i)
		for k := 0; p != -1; k++ {
			if k == n {
				return false
			}
			p = jt.Parent[p]
		}
	}
	for _, v := range h.Vertices() {
		var with []int
		for i, e := range h.Edges {
			if containsSorted(e, v) {
				with = append(with, i)
			}
		}
		if len(with) <= 1 {
			continue
		}
		inSet := map[int]bool{}
		for _, i := range with {
			inSet[i] = true
		}
		// BFS within the restriction.
		seen := map[int]bool{with[0]: true}
		queue := []int{with[0]}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, y := range adj[x] {
				if inSet[y] && !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
		if len(seen) != len(with) {
			return false
		}
	}
	return true
}

func containsSorted(e []int, v int) bool {
	i := sort.SearchInts(e, v)
	return i < len(e) && e[i] == v
}
