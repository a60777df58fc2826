package tw

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/hypergraph"
)

// newGraph returns the edgeless graph on n vertices.
func newGraph(n int) *Graph { return Gaifman(hypergraph.New(n)) }

// addEdge inserts the undirected edge {u, v}; loops are ignored.
func (g *Graph) addEdge(u, v int) {
	if u != v {
		g.row(u)[v>>6] |= 1 << uint(v&63)
		g.row(v)[u>>6] |= 1 << uint(u&63)
	}
}

// fromQuery is the Gaifman graph G(Q) of the query src, built from the
// hypergraph of its tableau, whose elements are 0…n−1.
func fromQuery(src string) *Graph {
	tb := cq.MustParse(src).Tableau()
	var edges [][]int
	for _, rel := range tb.S.Relations() {
		for _, t := range tb.S.Tuples(rel) {
			edges = append(edges, t)
		}
	}
	return Gaifman(hypergraph.New(tb.S.DomainSize(), edges...))
}

func path(n int) *Graph {
	g := newGraph(n)
	for i := 0; i+1 < n; i++ {
		g.addEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.addEdge(n-1, 0)
	return g
}

func clique(n int) *Graph {
	g := newGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.addEdge(i, j)
		}
	}
	return g
}

func grid(r, c int) *Graph {
	g := newGraph(r * c)
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.addEdge(at(i, j), at(i, j+1))
			}
			if i+1 < r {
				g.addEdge(at(i, j), at(i+1, j))
			}
		}
	}
	return g
}

func TestTreewidthKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"empty", newGraph(0), 0},
		{"single", newGraph(1), 0},
		{"edgeless", newGraph(5), 0},
		{"path5", path(5), 1},
		{"cycle3", cycle(3), 2},
		{"cycle6", cycle(6), 2},
		{"K4", clique(4), 3},
		{"K5", clique(5), 4},
		{"grid2x3", grid(2, 3), 2},
		{"grid3x3", grid(3, 3), 3},
		{"grid3x4", grid(3, 4), 3},
	}
	for _, c := range cases {
		if got := c.g.Treewidth(); got != c.want {
			t.Errorf("Treewidth(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTreewidthAtMost(t *testing.T) {
	g := cycle(5)
	if g.TreewidthAtMost(1) {
		t.Fatal("C5 has treewidth 2")
	}
	if !g.TreewidthAtMost(2) {
		t.Fatal("C5 has treewidth 2")
	}
	if !path(6).TreewidthAtMost(1) {
		t.Fatal("paths have treewidth 1")
	}
	if !clique(4).TreewidthAtMost(3) || clique(4).TreewidthAtMost(2) {
		t.Fatal("K4 bounds wrong")
	}
}

func TestIsForest(t *testing.T) {
	if !path(7).IsForest() {
		t.Fatal("path is a forest")
	}
	if cycle(4).IsForest() {
		t.Fatal("cycle is not a forest")
	}
	// Two disjoint paths.
	g := newGraph(6)
	g.addEdge(0, 1)
	g.addEdge(2, 3)
	g.addEdge(3, 4)
	if !g.IsForest() {
		t.Fatal("disjoint paths form a forest")
	}
	// On random Gaifman graphs, loops included, a forest is a graph of
	// treewidth at most 1 by the subset DP.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(9)
		var edges [][]int
		for k := rng.Intn(n + 2); k > 0; k-- {
			edges = append(edges, []int{rng.Intn(n), rng.Intn(n)})
		}
		g := Gaifman(hypergraph.New(n, edges...))
		if w, _ := g.treewidthDP(); g.IsForest() != (w <= 1) {
			t.Fatalf("%d vertices, edges %v: IsForest = %v, treewidth %d", n, edges, g.IsForest(), w)
		}
	}
}

// Forests answer at any size, without the exact DP: paths, stars and
// cycles of 70 vertices, whose neighbour sets span two words.
func TestForestsPastOneWord(t *testing.T) {
	path, star, cyc := newGraph(71), newGraph(71), newGraph(70)
	for i := 0; i < 70; i++ {
		path.addEdge(i, i+1)
		star.addEdge(0, i+1)
		cyc.addEdge(i, (i+1)%70)
	}
	for name, g := range map[string]*Graph{"path": path, "star": star} {
		if !g.IsForest() || !g.TreewidthAtMost(1) || !g.TreewidthAtMost(2) || g.Treewidth() != 1 {
			t.Fatalf("the 71-vertex %s is a forest of treewidth 1", name)
		}
	}
	if cyc.IsForest() || cyc.TreewidthAtMost(1) {
		t.Fatal("the 70-cycle is no forest")
	}
	if newGraph(70).Treewidth() != 0 {
		t.Fatal("an edgeless graph has treewidth 0 at any size")
	}
}

// The TW(1) test of a small hypergraph, on the approximation search's
// hot path, allocates nothing.
func TestAtMostAllocatesNothing(t *testing.T) {
	h := hypergraph.New(6, []int{0, 1, 2}, []int{2, 3}, []int{3, 4}, []int{4, 5}, []int{0, 5})
	forest := hypergraph.New(6, []int{0, 1}, []int{1, 2}, []int{2, 3}, []int{1, 4}, []int{4, 4})
	if n := testing.AllocsPerRun(100, func() { AtMost(h, 1); AtMost(forest, 2) }); n != 0 {
		t.Fatalf("AtMost allocates %v times per call", n)
	}
}

func TestDecomposeValidAndOptimal(t *testing.T) {
	for _, g := range []*Graph{path(6), cycle(5), clique(4), grid(3, 3), grid(2, 4)} {
		d := decompose(g)
		if !d.Valid(g) {
			t.Fatalf("invalid decomposition for graph with %d vertices", g.N)
		}
		if d.Width != g.Treewidth() {
			t.Fatalf("decomposition width %d ≠ treewidth %d", d.Width, g.Treewidth())
		}
	}
}

func TestFromStructureGaifman(t *testing.T) {
	g := fromQuery("Q() :- R(x,y,z), E(z,w)")
	if g.N != 4 {
		t.Fatalf("Gaifman graph has %d vertices, want 4", g.N)
	}
	// R(x,y,z) induces a triangle; E(z,w) a pendant edge.
	if g.NumEdges() != 4 {
		t.Fatalf("Gaifman edges = %d, want 4", g.NumEdges())
	}
	if g.Treewidth() != 2 {
		t.Fatalf("treewidth = %d, want 2 (triangle)", g.Treewidth())
	}
}

func TestLoopsIgnored(t *testing.T) {
	if !fromQuery("Q() :- E(x,x), E(x,y)").TreewidthAtMost(1) {
		t.Fatal("loop plus edge has treewidth 1")
	}
}

func TestStructureTreewidthOfCycleQuery(t *testing.T) {
	if w := fromQuery("Q() :- E(x,y), E(y,z), E(z,x)").Treewidth(); w != 2 {
		t.Fatalf("tw(C3 query) = %d, want 2", w)
	}
}

// Property: treewidth is monotone under edge deletion.
func TestQuickMonotoneUnderSubgraphs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g := newGraph(n)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.addEdge(i, j)
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		if len(edges) == 0 {
			return true
		}
		w := g.Treewidth()
		// Remove one random edge: treewidth cannot increase.
		drop := edges[rng.Intn(len(edges))]
		h := newGraph(n)
		for _, e := range edges {
			if e != drop {
				h.addEdge(e[0], e[1])
			}
		}
		return h.Treewidth() <= w
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decompose always yields a valid decomposition of optimal
// width on random graphs.
func TestQuickDecomposeValid(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5)
		g := newGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.addEdge(i, j)
				}
			}
		}
		d := decompose(g)
		return d.Valid(g) && d.Width == g.Treewidth()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// decompose returns an optimal-width tree decomposition of g, derived
// from the exact elimination ordering.
func decompose(g *Graph) Decomposition {
	n := g.N
	if n == 0 {
		return Decomposition{Width: 0}
	}
	_, order := g.treewidthDP()
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	// Fill-in simulation: eliminate in order, bag(v) = {v} ∪ current
	// neighbors; connect neighbors into a clique.
	work := &Graph{N: g.N, W: g.W, adj: slices.Clone(g.adj)}
	bags := make([][]int, n)
	bagOf := make([]int, n) // vertex → its bag index (same as pos order index)
	for i, v := range order {
		nbrs := []int{}
		m := work.word0(v)
		for m != 0 {
			w := bits.TrailingZeros64(m)
			m &= m - 1
			if pos[w] > i {
				nbrs = append(nbrs, w)
			}
		}
		bag := append([]int{v}, nbrs...)
		sort.Ints(bag)
		bags[i] = bag
		bagOf[v] = i
		for a := 0; a < len(nbrs); a++ {
			for b := a + 1; b < len(nbrs); b++ {
				work.addEdge(nbrs[a], nbrs[b])
			}
		}
	}
	var tree [][2]int
	for i, v := range order {
		// Parent: bag of the earliest-later-eliminated neighbor.
		bestPos := -1
		m := work.word0(v)
		for m != 0 {
			w := bits.TrailingZeros64(m)
			m &= m - 1
			if pos[w] > i && (bestPos == -1 || pos[w] < bestPos) {
				bestPos = pos[w]
			}
		}
		if bestPos >= 0 {
			tree = append(tree, [2]int{i, bestPos})
		} else if i+1 < n {
			tree = append(tree, [2]int{i, i + 1}) // keep the tree connected
		}
	}
	width := 0
	for _, b := range bags {
		if len(b)-1 > width {
			width = len(b) - 1
		}
	}
	return Decomposition{Bags: bags, Tree: tree, Width: width}
}
