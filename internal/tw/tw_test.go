package tw

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
)

func path(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func clique(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func grid(r, c int) *Graph {
	g := NewGraph(r * c)
	at := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.AddEdge(at(i, j), at(i, j+1))
			}
			if i+1 < r {
				g.AddEdge(at(i, j), at(i+1, j))
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
		{"empty", NewGraph(0), 0},
		{"single", NewGraph(1), 0},
		{"edgeless", NewGraph(5), 0},
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
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	if !g.IsForest() {
		t.Fatal("disjoint paths form a forest")
	}
	// On random graphs, edge masks included, a forest is a graph of
	// treewidth at most 1 by the subset DP.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(9)
		var edges []uint64
		for k := rng.Intn(n + 2); k > 0; k-- {
			edges = append(edges, 1<<uint(rng.Intn(n))|1<<uint(rng.Intn(n)))
		}
		g := FromMasks(n, edges)
		if got, want := g.IsForest(), g.Treewidth() <= 1; got != want {
			t.Fatalf("%d vertices, edges %b: IsForest = %v, treewidth ≤ 1 = %v", n, edges, got, want)
		}
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
	q := cq.MustParse("Q() :- R(x,y,z), E(z,w)")
	tb := q.Tableau()
	g, id := FromStructure(tb.S)
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
	_ = id
}

func TestLoopsIgnored(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,x), E(x,y)")
	tb := q.Tableau()
	if !StructureTreewidthAtMost(tb.S, 1) {
		t.Fatal("loop plus edge has treewidth 1")
	}
}

func TestStructureTreewidthOfCycleQuery(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	if w := StructureTreewidth(q.Tableau().S); w != 2 {
		t.Fatalf("tw(C3 query) = %d, want 2", w)
	}
}

// Property: treewidth is monotone under edge deletion.
func TestQuickMonotoneUnderSubgraphs(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		g := NewGraph(n)
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.AddEdge(i, j)
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
		h := NewGraph(n)
		for _, e := range edges {
			if e != drop {
				h.AddEdge(e[0], e[1])
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
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					g.AddEdge(i, j)
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
	work := g.Clone()
	bags := make([][]int, n)
	bagOf := make([]int, n) // vertex → its bag index (same as pos order index)
	for i, v := range order {
		nbrs := []int{}
		m := work.adj[v]
		for m != 0 {
			w := trailingZeros(m)
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
				work.AddEdge(nbrs[a], nbrs[b])
			}
		}
	}
	var tree [][2]int
	for i, v := range order {
		// Parent: bag of the earliest-later-eliminated neighbor.
		bestPos := -1
		m := work.adj[v]
		for m != 0 {
			w := trailingZeros(m)
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
