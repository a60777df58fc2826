package core

import (
	"math/rand"
	"testing"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/htw"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
	"cqapprox/internal/tw"
)

func TestClassifyGraphTableau(t *testing.T) {
	cases := []struct {
		src  string
		want TableauKind
	}{
		{"Q() :- E(x,y), E(y,z), E(z,x)", NonBipartite},
		{"Q() :- E(x,x)", NonBipartite},
		{"Q() :- E(x,y), E(y,z), E(z,u), E(x,u)", BipartiteUnbalanced},
		{"Q() :- E(x,y), E(y,z), E(z,u), E(u,v), E(v,w)", BipartiteBalanced},
		// Oriented 4-cycle with net length 0.
		{"Q() :- E(a,b), E(c,b), E(c,d), E(a,d)", BipartiteBalanced},
		// 5-cycle: odd, non-bipartite.
		{"Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)", NonBipartite},
	}
	for _, c := range cases {
		q := cq.MustParse(c.src)
		got, err := ClassifyGraphTableau(q)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestClassifyRejectsNonGraphQueries(t *testing.T) {
	q := cq.MustParse("Q() :- R(x,y,z)")
	if _, err := ClassifyGraphTableau(q); err == nil {
		t.Fatal("ternary query should be rejected")
	}
	q2 := cq.MustParse("Q() :- E(x,y), F(y,x)")
	if _, err := ClassifyGraphTableau(q2); err == nil {
		t.Fatal("two-relation query should be rejected")
	}
}

func TestClassifyWorksWithOtherEdgeNames(t *testing.T) {
	q := cq.MustParse("Q() :- Edge(x,y), Edge(y,z), Edge(z,x)")
	kind, err := ClassifyGraphTableau(q)
	if err != nil {
		t.Fatal(err)
	}
	if kind != NonBipartite {
		t.Fatalf("kind = %v", kind)
	}
}

// Theorem 5.1 cross-check: the trichotomy classification matches the
// computed approximations.
func TestTrichotomyMatchesComputedApproximations(t *testing.T) {
	cases := []string{
		"Q() :- E(x,y), E(y,z), E(z,x)",
		"Q() :- E(x,y), E(y,z), E(z,u), E(x,u)",
		"Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
		"Q() :- E(a,b), E(c,b), E(c,d), E(a,d), E(d,e)",
	}
	for _, src := range cases {
		q := cq.MustParse(src)
		kind, err := ClassifyGraphTableau(q)
		if err != nil {
			t.Fatal(err)
		}
		cyclic, err := IsCyclicGraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !cyclic {
			continue
		}
		apps, err := Approximations(q, TW(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case NonBipartite:
			if len(apps) != 1 || !IsTrivialQuery(apps[0]) {
				t.Errorf("%s: non-bipartite should give only Q_trivial, got %v", src, apps)
			}
		case BipartiteUnbalanced:
			if len(apps) != 1 || !hom.Equivalent(apps[0], TrivialBipartite()) {
				t.Errorf("%s: bipartite-unbalanced should give only Q_triv2, got %v", src, apps)
			}
		case BipartiteBalanced:
			for _, a := range apps {
				if IsTrivialQuery(a) {
					t.Errorf("%s: balanced case yielded trivial approximation %v", src, a)
				}
				// No pair E(x,y), E(y,x).
				tb := a.Tableau()
				for _, tpl := range tb.S.Tuples("E") {
					if tpl[0] != tpl[1] && tb.S.Has("E", tpl[1], tpl[0]) {
						t.Errorf("%s: approximation %v contains a 2-cycle", src, a)
					}
				}
			}
		}
	}
}

func TestIsCyclicGraphQuery(t *testing.T) {
	cyc, err := IsCyclicGraphQuery(cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)"))
	if err != nil || !cyc {
		t.Fatalf("triangle should be cyclic (err=%v)", err)
	}
	cyc, err = IsCyclicGraphQuery(cq.MustParse("Q() :- E(x,y), E(y,x)"))
	if err != nil || cyc {
		t.Fatalf("2-cycle is forest-like (err=%v)", err)
	}
}

// Theorems 5.8/5.10 dichotomy: loop-free approximation iff
// (k+1)-colorable.
func TestHasLoopFreeTWkApproximation(t *testing.T) {
	tri := cq.MustParse("Q(x,y) :- E(x,y), E(y,z), E(z,x)")
	ok, err := HasLoopFreeTWkApproximation(tri, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("triangle is not 2-colorable: no loop-free TW(1) approximation")
	}
	ok, err = HasLoopFreeTWkApproximation(tri, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("triangle is 3-colorable: loop-free TW(2) approximation exists")
	}
	// Cross-check with the engine for k=1: all approximations of the
	// non-Boolean triangle have loops (verified in approx_test), while a
	// bipartite cyclic query has a loop-free one.
	c4 := cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,u), E(u,x)")
	ok, err = HasLoopFreeTWkApproximation(c4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("C4 is bipartite: loop-free TW(1) approximation exists")
	}
	apps, err := Approximations(c4, TW(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loopFree := false
	for _, a := range apps {
		has := false
		for _, at := range a.Atoms {
			if at.Args[0] == at.Args[1] {
				has = true
			}
		}
		if !has {
			loopFree = true
		}
	}
	if !loopFree {
		t.Fatalf("no loop-free approximation among %v", apps)
	}
}

// Corollary 5.11 for Boolean queries.
func TestNontrivialTWkApproximationExists(t *testing.T) {
	tri := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	ok, err := NontrivialTWkApproximationExists(tri, 1)
	if err != nil || ok {
		t.Fatalf("C3 has only trivial TW(1)-approximations (ok=%v err=%v)", ok, err)
	}
	ok, err = NontrivialTWkApproximationExists(tri, 2)
	if err != nil || !ok {
		t.Fatalf("C3 has a nontrivial TW(2)-approximation (ok=%v err=%v)", ok, err)
	}
	if _, err := NontrivialTWkApproximationExists(cq.MustParse("Q(x) :- E(x,y)"), 1); err == nil {
		t.Fatal("non-Boolean queries should be rejected")
	}
}

// Proposition 4.11: the approximation oracle decides TW(k)-equivalence.
func TestEquivalentToClass(t *testing.T) {
	cases := []struct {
		src  string
		c    Class
		want bool
	}{
		{"Q() :- E(x,y), E(y,z), E(z,x)", TW(1), false},
		{"Q() :- E(x,y), E(y,z)", TW(1), true},
		// Redundant cyclic-looking query that minimizes into TW(1):
		// E(x,y),E(x,z) core is a single edge.
		{"Q() :- E(x,y), E(x,z)", TW(1), true},
		{"Q() :- E(x,y), E(y,z), E(z,x)", TW(2), true},
		// The 4-cycle query is equivalent to no TW(1) query.
		{"Q() :- E(x,y), E(y,z), E(z,u), E(u,x)", TW(1), false},
	}
	for _, c := range cases {
		q := cq.MustParse(c.src)
		got, err := EquivalentToClass(q, c.c, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got != c.want {
			t.Errorf("EquivalentToClass(%s, %s) = %v, want %v", c.src, c.c.Name(), got, c.want)
		}
	}
}

func TestTrivialQueryConstruction(t *testing.T) {
	q := cq.MustParse("Q(x,y) :- E(x,y), R(x,y,z)")
	triv := Trivial(q)
	if len(triv.Head) != 2 || triv.Head[0] != triv.Head[1] {
		t.Fatalf("trivial head = %v", triv.Head)
	}
	if len(triv.Atoms) != 2 {
		t.Fatalf("trivial atoms = %v", triv.Atoms)
	}
	if !hom.Contained(triv, q) {
		t.Fatal("Q_trivial must be contained in q")
	}
	tb := triv.Tableau()
	for _, c := range []Class{TW(1), AC(), HTW(1), HTW(2)} {
		if !c.Contains(tb.S) {
			t.Errorf("Q_trivial not in %s", c.Name())
		}
	}
}

func TestTrivialK(t *testing.T) {
	k3 := TrivialK(3)
	if len(k3.Atoms) != 6 {
		t.Fatalf("K3 atoms = %d", len(k3.Atoms))
	}
	tb := k3.Tableau()
	if !TW(2).Contains(tb.S) {
		t.Fatal("K3↔ has treewidth 2")
	}
	if TW(1).Contains(tb.S) {
		t.Fatal("K3↔ is not treewidth 1")
	}
}

func TestClassNames(t *testing.T) {
	if TW(1).Name() != "TW(1)" || AC().Name() != "AC" ||
		HTW(2).Name() != "HTW(2)" || GHTW(3).Name() != "GHTW(3)" {
		t.Fatal("class names wrong")
	}
	if !TW(1).GraphBased() || AC().GraphBased() || HTW(1).GraphBased() || GHTW(1).GraphBased() {
		t.Fatal("GraphBased flags wrong")
	}
}

func TestACAndHTW1Agree(t *testing.T) {
	for _, src := range []string{
		"Q() :- E(x,y), E(y,z)",
		"Q() :- E(x,y), E(y,z), E(z,x)",
		"Q() :- R(x,u,y), R(y,v,z), R(z,w,x)",
		"Q() :- R(x,y,z), S(z,w)",
	} {
		tb := cq.MustParse(src).Tableau()
		if AC().Contains(tb.S) != HTW(1).Contains(tb.S) {
			t.Errorf("%s: AC and HTW(1) disagree", src)
		}
	}
}

// The built-in classes' Contains flattens a structure to edge masks
// over its elements renumbered densely, and past 64 elements takes the
// general test; both agree with the definitions.
func TestBuiltinContainsMatchesDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := relstr.New()
		for k := 1 + rng.Intn(7); k > 0; k-- {
			e := func() int { return 3 * rng.Intn(6) } // sparse element ids
			if rng.Intn(2) == 0 {
				s.Add("E", e(), e())
			} else {
				s.Add("R", e(), e(), e())
			}
		}
		h := hypergraph.FromStructure(s)
		for _, c := range []struct {
			c    Class
			want bool
		}{
			{TW(1), tw.StructureTreewidthAtMost(s, 1)},
			{TW(2), tw.StructureTreewidthAtMost(s, 2)},
			{AC(), h.IsAcyclic()},
			{HTW(2), htw.AtMost(h, 2)},
			{GHTW(2), htw.GHTWAtMost(h, 2)},
		} {
			if got := c.c.Contains(s); got != c.want {
				t.Fatalf("%s.Contains(%v) = %v, want %v", c.c.Name(), s, got, c.want)
			}
		}
	}
	path, cycle := relstr.New(), relstr.New()
	for i := 0; i < 70; i++ {
		path.Add("E", i, i+1)
		cycle.Add("E", i, (i+1)%70)
	}
	if !AC().Contains(path) || AC().Contains(cycle) || !AC().Contains(relstr.New()) {
		t.Fatal("AC: the 71-element path and the empty structure are acyclic, the 70-cycle is not")
	}
}
