package hypergraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
)

// fromQuery is the hypergraph H(Q) of the query src: one edge per atom
// of its tableau, whose elements are 0…n−1.
func fromQuery(src string) Hypergraph {
	tb := cq.MustParse(src).Tableau()
	var edges [][]int
	for _, rel := range tb.S.Relations() {
		for _, t := range tb.S.Tuples(rel) {
			edges = append(edges, t)
		}
	}
	return New(tb.S.DomainSize(), edges...)
}

// of is the hypergraph over the vertices up to the largest one named.
func of(edges ...[]int) Hypergraph {
	n := 0
	for _, e := range edges {
		for _, v := range e {
			n = max(n, v+1)
		}
	}
	return New(n, edges...)
}

// has reports whether edge i of h holds v.
func (h Hypergraph) has(i, v int) bool { return h.Edge(i)[v>>6]>>uint(v&63)&1 != 0 }

// induced is the induced subhypergraph on keep: each edge intersected
// with keep, empty intersections dropped (the paper's closure condition
// #1 in Section 6).
func induced(h Hypergraph, keep []int) Hypergraph {
	k := New(h.N, keep)
	out := Hypergraph{N: h.N, W: h.W}
	for i := 0; i < h.NumEdges(); i++ {
		e := slices.Clone(h.Edge(i))
		for j := range e {
			e[j] &= k.E[j]
		}
		if slices.ContainsFunc(e, func(x uint64) bool { return x != 0 }) {
			out.E = append(out.E, e...)
		}
	}
	return out
}

func TestAcyclicBasics(t *testing.T) {
	// Single edge.
	if !of([]int{0, 1, 2}).Acyclic() {
		t.Fatal("single edge is acyclic")
	}
	// Path of edges.
	if !of([]int{0, 1}, []int{1, 2}, []int{2, 3}).Acyclic() {
		t.Fatal("edge path is acyclic")
	}
	// Triangle.
	if of([]int{0, 1}, []int{1, 2}, []int{2, 0}).Acyclic() {
		t.Fatal("triangle is cyclic")
	}
	// Paper's example: triangle plus covering 3-edge is acyclic.
	if !of([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2}).Acyclic() {
		t.Fatal("triangle + covering edge is acyclic (paper §6)")
	}
	// α-acyclicity example: "fan" R(x,y,z), S(z,w).
	if !of([]int{0, 1, 2}, []int{2, 3}).Acyclic() {
		t.Fatal("fan is acyclic")
	}
}

func TestAcyclicDuplicatesAndLoops(t *testing.T) {
	// Duplicate edges (two identical atoms) stay acyclic.
	if !of([]int{0, 1}, []int{0, 1}).Acyclic() {
		t.Fatal("duplicate edges are acyclic")
	}
	// Single-vertex edge (loop atom E(x,x)).
	if !of([]int{0}, []int{0, 1}).Acyclic() {
		t.Fatal("loop edge is acyclic")
	}
}

// Edge cases of the flat form: no edges, empty edges, the last vertex
// of a word, and cycles and covered cycles across word boundaries.
func TestAcyclicEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		h    Hypergraph
		want bool
	}{
		{"empty", New(0), true},
		{"empty edge", New(3, []int{}), true},
		{"loop", of([]int{0}), true},
		{"duplicates", of([]int{0, 1}, []int{0, 1}, []int{0, 1}), true},
		{"triangle", of([]int{0, 1}, []int{1, 2}, []int{0, 2}), false},
		{"covered triangle", of([]int{0, 1}, []int{1, 2}, []int{0, 2}, []int{0, 1, 2}), true},
		{"C4", of([]int{0, 1}, []int{1, 2}, []int{2, 3}, []int{3, 0}), false},
		{"vertex 63", of([]int{0, 63}, []int{1, 63}, []int{0, 1}), false},
		{"triangle across words", of([]int{5, 64}, []int{64, 130}, []int{130, 5}), false},
		{"covered across words", of([]int{5, 64}, []int{64, 130}, []int{130, 5}, []int{5, 64, 130}), true},
		{"path across words", of([]int{63, 64}, []int{64, 127}, []int{127, 128}, []int{128, 191}), true},
	}
	for _, c := range cases {
		if got := c.h.Acyclic(); got != c.want {
			t.Errorf("%s: Acyclic = %v, want %v", c.name, got, c.want)
		}
		if _, got := c.h.GYO(nil); got != c.want {
			t.Errorf("%s: GYO verdict = %v, want %v", c.name, got, c.want)
		}
	}
}

// The acyclicity test of a small hypergraph, the approximation search's
// class test, allocates nothing.
func TestAcyclicAllocatesNothing(t *testing.T) {
	h := fromQuery("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x1,x3,x5)")
	if n := testing.AllocsPerRun(100, func() { h.Acyclic() }); n != 0 {
		t.Fatalf("Acyclic allocates %v times per call", n)
	}
}

func TestCycleOfLengthFour(t *testing.T) {
	if of([]int{0, 1}, []int{1, 2}, []int{2, 3}, []int{3, 0}).Acyclic() {
		t.Fatal("C4 hypergraph is cyclic")
	}
}

func TestBermanCyclicTernary(t *testing.T) {
	// The tableau of Q():-R(x,u,y),R(y,v,z),R(z,w,x) (paper intro):
	// edges {x,u,y},{y,v,z},{z,w,x} form a β-cycle; α-cyclic as well.
	if fromQuery("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)").Acyclic() {
		t.Fatal("ternary cycle query should be cyclic")
	}
	// Example 6.6's Q'3 = same + R(x1,x3,x5): acyclic.
	if !fromQuery("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1), R(x1,x3,x5)").Acyclic() {
		t.Fatal("Q'3 of Example 6.6 should be acyclic")
	}
}

func TestJoinTreeValid(t *testing.T) {
	cases := []struct {
		h     Hypergraph
		roots int
	}{
		{of([]int{0, 1, 2}, []int{2, 3}, []int{3, 4, 5}), 1},
		{of([]int{0, 1}, []int{1, 2}, []int{1, 3}), 1},
		{of([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2}), 1},
		{of([]int{0}, []int{0, 1}, []int{0, 1}), 1},
		// Disconnected: one tree per component.
		{of([]int{0, 1}, []int{5, 6}), 2},
		{of([]int{0, 1}, []int{5, 6}, []int{1, 2}, []int{6}), 2},
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
	h := of([]int{0, 1}, []int{1, 2}, []int{2, 3})
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
	h := of([]int{0, 1}, []int{1, 3}, []int{1, 4}, []int{1, 2})
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

// The induced subhypergraph keeps e∩V′ and drops emptied edges.
func TestInduced(t *testing.T) {
	ind := induced(of([]int{0, 1, 2}, []int{2, 3}), []int{0, 1, 2})
	if ind.NumEdges() != 2 || !slices.Equal(ind.Edge(1), New(4, []int{2}).E) {
		t.Fatalf("induced edges = %b, want the second to be {2}", ind.E)
	}
	if ind = induced(of([]int{0, 1}, []int{2, 3}), []int{0}); ind.NumEdges() != 1 {
		t.Fatalf("induced on {0} keeps %d edges, want 1", ind.NumEdges())
	}
}

// Closure checks from the paper (Section 6): acyclic hypergraphs are
// closed under induced subhypergraphs, but not under plain
// subhypergraphs.
func TestAcyclicClosureProperties(t *testing.T) {
	// Not closed under subhypergraphs: drop the covering 3-edge.
	full := of([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2})
	if !full.Acyclic() {
		t.Fatal("setup: full should be acyclic")
	}
	sub := of([]int{0, 1}, []int{1, 2}, []int{0, 2})
	if sub.Acyclic() {
		t.Fatal("sub (triangle) must be cyclic: acyclicity is not subhypergraph-closed")
	}
	// Closed under induced: the only induced subhypergraph of full
	// containing all 2-edges is full itself (paper's remark); check a
	// couple of induced subhypergraphs are acyclic.
	for _, keep := range [][]int{{0, 1}, {0, 1, 2}, {1}} {
		if !induced(full, keep).Acyclic() {
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
		var edges [][]int
		fresh := 0
		take := func(n int) []int {
			out := make([]int, n)
			for i := range out {
				out[i] = fresh
				fresh++
			}
			return out
		}
		edges = append(edges, take(1+rng.Intn(3)))
		for i := 0; i < 4; i++ {
			var shared []int
			for _, v := range edges[rng.Intn(len(edges))] {
				if rng.Intn(2) == 0 {
					shared = append(shared, v)
				}
			}
			edges = append(edges, append(shared, take(1+rng.Intn(2))...))
		}
		var head []int
		for v := 0; v < fresh; v++ {
			if rng.Intn(3) == 0 {
				head = append(head, v)
			}
		}
		h := New(fresh, edges...)
		jt, ok := h.GYO(head)
		return ok && validJoinTree(h, jt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// refGYO is the reference GYO reduction over edges given as vertex
// lists, with map-based vertex sets: the same reduction and witness
// rule as Hypergraph.GYO, written without bitsets.
func refGYO(edges [][]int, head []int) (JoinTree, bool) {
	n := len(edges)
	jt := JoinTree{Parent: make([]int, n)}
	for i := range jt.Parent {
		jt.Parent[i] = -1
	}
	work := make([]map[int]bool, n)
	isHead := map[int]bool{}
	for _, v := range head {
		isHead[v] = true
	}
	alive := make([]bool, n)
	heads := make([]int, n)
	for i, e := range edges {
		work[i] = map[int]bool{}
		for _, v := range e {
			work[i][v] = true
		}
		alive[i] = true
		for v := range work[i] {
			if isHead[v] {
				heads[i]++
			}
		}
	}
	subset := func(a, b map[int]bool) bool {
		for v := range a {
			if !b[v] {
				return false
			}
		}
		return true
	}
	for {
		changed := false
		occ := map[int]int{}
		for i := range work {
			if alive[i] {
				for v := range work[i] {
					occ[v]++
				}
			}
		}
		for i := range work {
			if !alive[i] {
				continue
			}
			for v := range work[i] {
				if occ[v] == 1 {
					delete(work[i], v)
					changed = true
				}
			}
		}
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
	for i := range work {
		if alive[i] && len(work[i]) > 0 {
			return JoinTree{}, false
		}
	}
	return jt, true
}

// The bitset GYO returns the reference's verdict and, on acyclic
// hypergraphs, its parent array, on random hypergraphs with random
// heads. Vertex ids are drawn from up to 200 vertices, so edges span
// one to four words.
func TestGYOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	wide, acyclic := 0, 0
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(10)
		switch i % 3 {
		case 1:
			n = 65 + rng.Intn(64)
		case 2:
			n = 129 + rng.Intn(72)
		}
		// A few vertices in use, at random ids below n.
		pool := rng.Perm(n)[:min(n, 3+rng.Intn(6))]
		edges := make([][]int, rng.Intn(13))
		for j := range edges {
			if j > 0 && rng.Intn(6) == 0 {
				edges[j] = edges[rng.Intn(j)] // a duplicate atom
				continue
			}
			for k := 2 + rng.Intn(2); k > 0; k-- {
				edges[j] = append(edges[j], pool[rng.Intn(len(pool))])
			}
		}
		var head []int
		for _, v := range pool {
			if rng.Intn(3) == 0 {
				head = append(head, v)
			}
		}
		h := New(n, edges...)
		if h.W > 1 {
			wide++
		}
		want, wantOK := refGYO(edges, head)
		got, ok := h.GYO(head)
		if ok != wantOK || !slices.Equal(got.Parent, want.Parent) {
			t.Fatalf("edges %v, head %v: GYO = %v (acyclic %v), reference %v (acyclic %v)", edges, head, got.Parent, ok, want.Parent, wantOK)
		}
		if h.Acyclic() != ok {
			t.Fatalf("edges %v: Acyclic = %v, GYO verdict %v", edges, !ok, ok)
		}
		if ok {
			acyclic++
			if !validJoinTree(h, got) {
				t.Fatalf("edges %v, head %v: invalid join tree %v", edges, head, got.Parent)
			}
		}
	}
	t.Logf("%d hypergraphs past one word, %d acyclic", wide, acyclic)
}

// validJoinTree checks that jt is a forest over h's edges — every
// parent chain ends at a root — satisfying the join-tree connectedness
// condition: for every vertex v, the set of edges containing v induces
// a connected subtree.
func validJoinTree(h Hypergraph, jt JoinTree) bool {
	n := h.NumEdges()
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
	for v := 0; v < h.N; v++ {
		var with []int
		for i := 0; i < n; i++ {
			if h.has(i, v) {
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
