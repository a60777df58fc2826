package digraph

import (
	"strings"
	"testing"

	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
)

func TestDirectedPathAndCycle(t *testing.T) {
	p := DirectedPath(3)
	if p.NumFacts() != 3 || p.DomainSize() != 4 {
		t.Fatalf("P3 = %v", p)
	}
	c := DirectedCycle(4)
	if c.NumFacts() != 4 || c.DomainSize() != 4 {
		t.Fatalf("C4 = %v", c)
	}
}

func TestCompleteDigraph(t *testing.T) {
	k3 := CompleteDigraph(3)
	if k3.NumFacts() != 6 || HasLoop(k3) {
		t.Fatalf("K3↔ = %v", k3)
	}
}

func TestBipartite(t *testing.T) {
	if IsBipartite(DirectedCycle(3)) {
		t.Fatal("C3 is not bipartite")
	}
	if !IsBipartite(DirectedCycle(4)) {
		t.Fatal("C4 is bipartite")
	}
	if !IsBipartite(DirectedPath(7)) {
		t.Fatal("paths are bipartite")
	}
	if IsBipartite(Loop()) {
		t.Fatal("loops are not bipartite")
	}
	if !IsBipartite(CompleteDigraph(2)) {
		t.Fatal("K2↔ is bipartite")
	}
}

func TestBipartiteMatchesHomToK2(t *testing.T) {
	graphs := []*relstr.Structure{
		DirectedCycle(3), DirectedCycle(4), DirectedCycle(5), DirectedCycle(6),
		DirectedPath(4), Loop(), CompleteDigraph(3),
	}
	for _, g := range graphs {
		want := hom.Exists(g, CompleteDigraph(2), nil)
		if got := IsBipartite(g); got != want {
			t.Errorf("IsBipartite(%v) = %v, hom to K2↔ = %v", g, got, want)
		}
	}
}

func TestKColorable(t *testing.T) {
	if !IsKColorable(DirectedCycle(3), 3) || IsKColorable(DirectedCycle(3), 2) {
		t.Fatal("C3 is 3- but not 2-colorable")
	}
	k4 := CompleteDigraph(4)
	if IsKColorable(k4, 3) || !IsKColorable(k4, 4) {
		t.Fatal("K4 is 4- but not 3-colorable")
	}
	if IsKColorable(Loop(), 5) {
		t.Fatal("loops are never colorable")
	}
	if !IsKColorable(DirectedCycle(5), 3) || IsKColorable(DirectedCycle(5), 2) {
		t.Fatal("C5 is 3- but not 2-colorable")
	}
}

func TestKColorableMatchesHomToKm(t *testing.T) {
	graphs := []*relstr.Structure{
		DirectedCycle(3), DirectedCycle(5), CompleteDigraph(4), DirectedPath(3),
	}
	for _, g := range graphs {
		for k := 2; k <= 4; k++ {
			want := hom.Exists(SymmetricClosure(g), CompleteDigraph(k), nil)
			if got := IsKColorable(g, k); got != want {
				t.Errorf("IsKColorable(%v, %d) = %v, hom = %v", g, k, got, want)
			}
		}
	}
}

func TestForestLike(t *testing.T) {
	if !IsForestLike(DirectedPath(5)) {
		t.Fatal("paths are forest-like")
	}
	if !IsForestLike(CompleteDigraph(2)) {
		t.Fatal("K2↔ is forest-like (2-cycles allowed)")
	}
	if !IsForestLike(Loop()) {
		t.Fatal("a loop is forest-like")
	}
	if IsForestLike(DirectedCycle(3)) || IsForestLike(DirectedCycle(4)) {
		t.Fatal("cycles of length ≥ 3 are not forest-like")
	}
	// Loop plus 2-cycle attached to a path.
	g := FromEdges([2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2})
	if !IsForestLike(g) {
		t.Fatal("loop+2-cycle+pendant should be forest-like")
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges([2]int{0, 1}, [2]int{2, 3}, [2]int{3, 4})
	comps := Components(g)
	if len(comps) != 2 || len(comps[0]) != 2 || len(comps[1]) != 3 {
		t.Fatalf("Components = %v", comps)
	}
	if !IsConnected(DirectedCycle(5)) {
		t.Fatal("C5 is connected")
	}
	if IsConnected(g) {
		t.Fatal("two components reported connected")
	}
}

func TestOrientedPathString(t *testing.T) {
	p := OrientedPathFromString("001")
	// Edges 0→1, 1→2, 3→2.
	if !p.G.Has(EdgeRel, 0, 1) || !p.G.Has(EdgeRel, 1, 2) || !p.G.Has(EdgeRel, 3, 2) {
		t.Fatalf("P(001) = %v", p.G)
	}
	if p.Init != 0 || p.Term != 3 {
		t.Fatalf("Init/Term = %d/%d", p.Init, p.Term)
	}
	if NetLength("001") != 1 || NetLength("0000") != 4 || NetLength("11") != -2 {
		t.Fatal("NetLength wrong")
	}
}

func TestBalanced(t *testing.T) {
	if !IsBalanced(DirectedPath(6)) {
		t.Fatal("directed paths are balanced")
	}
	if IsBalanced(DirectedCycle(3)) {
		t.Fatal("directed cycles are unbalanced")
	}
	if IsBalanced(Loop()) {
		t.Fatal("loops are unbalanced")
	}
	// Oriented 4-cycle 0→1←2→3←0 has net length 0: balanced.
	g := FromEdges([2]int{0, 1}, [2]int{2, 1}, [2]int{2, 3}, [2]int{0, 3})
	if !IsBalanced(g) {
		t.Fatal("alternating oriented 4-cycle is balanced")
	}
	// Q3 from the paper (E(x,y),E(y,z),E(z,u),E(x,u)): bipartite but
	// unbalanced (net length 2 ≠ 0 around the cycle).
	q3 := FromEdges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{0, 3})
	if IsBalanced(q3) {
		t.Fatal("Q3's tableau is unbalanced")
	}
	if !IsBipartite(q3) {
		t.Fatal("Q3's tableau is bipartite")
	}
}

func TestBalancedIffHomToDirectedPath(t *testing.T) {
	// Hell–Nešetřil: balanced iff homomorphic to some directed path.
	graphs := []*relstr.Structure{
		DirectedPath(4),
		DirectedCycle(4),
		OrientedPathFromString("0101").G,
		FromEdges([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{0, 3}),
	}
	for _, g := range graphs {
		want := hom.Exists(g, DirectedPath(g.DomainSize()+1), nil)
		if got := IsBalanced(g); got != want {
			t.Errorf("IsBalanced(%v) = %v, hom-to-path = %v", g, got, want)
		}
	}
}

func TestLevelsOfOrientedPath(t *testing.T) {
	// Path "01": 0→1←2. φ: 0:0, 1:1, 2:0 → levels 0,1,0.
	p := OrientedPathFromString("01")
	lv, ok := Levels(p.G)
	if !ok {
		t.Fatal("oriented path should be balanced")
	}
	if lv[0] != 0 || lv[1] != 1 || lv[2] != 0 {
		t.Fatalf("levels = %v", lv)
	}
	if Height(p.G) != 1 {
		t.Fatalf("height = %d", Height(p.G))
	}
}

func TestLevelsPreservedByHoms(t *testing.T) {
	// Lemma 4.5: homs between balanced digraphs of equal height
	// preserve levels.
	a := OrientedPathFromString("0010")
	b := OrientedPathFromString("0010")
	la, _ := Levels(a.G)
	lb, _ := Levels(b.G)
	if Height(a.G) != Height(b.G) {
		t.Fatal("setup: heights differ")
	}
	ok := hom.ForEach(a.G, b.G, nil, func(h map[int]int) bool {
		for v, img := range h {
			if la[v] != lb[img] {
				t.Errorf("hom does not preserve level: %d (lv %d) ↦ %d (lv %d)", v, la[v], img, lb[img])
			}
		}
		return true
	})
	if !ok {
		t.Fatal("enumeration stopped early")
	}
}

func TestPaperP1P2Incomparable(t *testing.T) {
	// Prop 4.4's building blocks: P1 = 001000 and P2 = 000100 are
	// incomparable cores.
	p1 := OrientedPathFromString("001000")
	p2 := OrientedPathFromString("000100")
	if hom.Exists(p1.G, p2.G, nil) || hom.Exists(p2.G, p1.G, nil) {
		t.Fatal("P1 and P2 should be incomparable")
	}
	if !hom.IsCore(p1.G, nil) || !hom.IsCore(p2.G, nil) {
		t.Fatal("P1 and P2 should be cores")
	}
}

// isomorphic reports whether the pointed digraphs get the same
// canonical key, failing unless both keys come from the exact search
// (the c| prefix), under which equal keys mean isomorphic.
func isomorphic(t *testing.T, a, b *relstr.Structure, distA, distB []int) bool {
	t.Helper()
	ka, kb := relstr.CanonicalKey(a, distA), relstr.CanonicalKey(b, distB)
	if !strings.HasPrefix(ka, "c|") || !strings.HasPrefix(kb, "c|") {
		t.Fatalf("keys %q and %q are not both exact", ka, kb)
	}
	return ka == kb
}

func TestConcat(t *testing.T) {
	a := Pointed{G: DirectedPath(2), Init: 0, Term: 2}
	b := Pointed{G: DirectedPath(3), Init: 0, Term: 3}
	c := Concat(a, b)
	if c.G.NumFacts() != 5 {
		t.Fatalf("Concat facts = %d, want 5", c.G.NumFacts())
	}
	if !isomorphic(t, c.G, DirectedPath(5), []int{c.Init, c.Term}, []int{0, 5}) {
		t.Fatalf("P2·P3 should be P5, got %v", c.G)
	}
}

func TestConcatReverse(t *testing.T) {
	a := Pointed{G: DirectedPath(1), Init: 0, Term: 1}
	z := Concat(a, a.Reverse())
	// 0→1←0': an oriented path "01".
	want := OrientedPathFromString("01")
	if !isomorphic(t, z.G, want.G, []int{z.Init, z.Term}, []int{want.Init, want.Term}) {
		t.Fatalf("P1·P1⁻¹ = %v", z.G)
	}
}

func TestGlue(t *testing.T) {
	host := DirectedPath(1) // 0→1
	p := Pointed{G: DirectedPath(1), Init: 0, Term: 1}
	g := Glue(host, 1, 0, p) // add an edge from 1 back to 0
	if !g.Has(EdgeRel, 1, 0) || g.NumFacts() != 2 {
		t.Fatalf("Glue = %v", g)
	}
}

func TestGlueAt(t *testing.T) {
	host := DirectedPath(1)
	p := Pointed{G: DirectedPath(2), Init: 0, Term: 2}
	g, term := GlueAt(host, 1, p)
	if g.NumFacts() != 3 {
		t.Fatalf("GlueAt = %v", g)
	}
	if !isomorphic(t, g, DirectedPath(3), []int{0, term}, []int{0, 3}) {
		t.Fatalf("GlueAt should extend the path, got %v (term %d)", g, term)
	}
}
