package cqapprox

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// The facade end-to-end: the package documentation's quick-start flow.
func TestQuickStartFlow(t *testing.T) {
	q := MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	if Treewidth(q) != 2 {
		t.Fatalf("tw = %d, want 2", Treewidth(q))
	}
	if IsAcyclic(q) {
		t.Fatal("triangle is cyclic")
	}
	a, err := Approximate(q, TW(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !Contained(a, q) {
		t.Fatal("approximation not contained in q")
	}
	ok, err := IsApproximation(q, a, TW(1), DefaultOptions())
	if err != nil || !ok {
		t.Fatalf("IsApproximation = %v, %v", ok, err)
	}

	// Evaluate both on a database with a triangle and a loop.
	db := NewStructure()
	db.Add("E", 1, 2)
	db.Add("E", 2, 3)
	db.Add("E", 3, 1)
	db.Add("E", 7, 7)
	exact := NaiveEval(q, db)
	approx := Eval(a, db)
	// Soundness: approx ⊆ exact.
	for _, t2 := range approx {
		if !exact.Contains(t2) {
			t.Fatalf("approximation produced wrong answer %v", t2)
		}
	}
}

func TestFacadeClassifiers(t *testing.T) {
	q := MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	kind, err := ClassifyGraphTableau(q)
	if err != nil || kind != NonBipartite {
		t.Fatalf("kind = %v, err = %v", kind, err)
	}
	ok, err := EquivalentToClass(q, TW(1), DefaultOptions())
	if err != nil || ok {
		t.Fatalf("C3 is not TW(1)-equivalent (ok=%v err=%v)", ok, err)
	}
	ok, err = HasLoopFreeTWkApproximation(q, 2)
	if err != nil || !ok {
		t.Fatalf("C3 is 3-colorable (ok=%v err=%v)", ok, err)
	}
}

func TestFacadeMinimizeAndEquivalence(t *testing.T) {
	q := MustParse("Q() :- E(x,y), E(x,z)")
	m := Minimize(q)
	if len(m.Atoms) != 1 || !Equivalent(q, m) || !IsMinimized(m) {
		t.Fatalf("Minimize = %v", m)
	}
}

// The treewidth of a path query answers past the exact computation's
// 24 variables, and past 64: a forest needs no elimination order.
func TestFacadeTreewidthOfLongPaths(t *testing.T) {
	for _, n := range []int{30, 70} {
		var atoms []string
		for i := 0; i < n; i++ {
			atoms = append(atoms, fmt.Sprintf("E(x%d,x%d)", i, i+1))
		}
		if w := Treewidth(MustParse("Q() :- " + strings.Join(atoms, ", "))); w != 1 {
			t.Fatalf("the %d-atom path has treewidth %d, want 1", n, w)
		}
	}
}

func TestFacadeHypertreeWidth(t *testing.T) {
	q := MustParse("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)")
	if HypertreeWidth(q) != 2 {
		t.Fatalf("htw = %d, want 2", HypertreeWidth(q))
	}
	if !AC().Contains(MustParse("Q() :- R(a,b,c)").Tableau().S) {
		t.Fatal("single atom is acyclic")
	}
	if GHTW(2).Name() != "GHTW(2)" {
		t.Fatal("name")
	}
}

func TestFacadeYannakakis(t *testing.T) {
	q := MustParse("Q(x,z) :- E(x,y), E(y,z)")
	db := NewStructure()
	db.Add("E", 1, 2)
	db.Add("E", 2, 3)
	p, err := NewEngine().PrepareExact(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.PlanMode() != "yannakakis" {
		t.Fatalf("acyclic query planned as %s", p.PlanMode())
	}
	ans, err := p.Eval(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0][0] != 1 || ans[0][1] != 3 {
		t.Fatalf("answers = %v", ans)
	}
	if EvalBool(MustParse("Q() :- E(a,a)"), db) {
		t.Fatal("no loops in db")
	}
	if CountMustBeOne := len(NaiveEval(q, db)); CountMustBeOne != 1 {
		t.Fatal("naive disagrees")
	}
}

func TestFacadeOverapproximation(t *testing.T) {
	q := MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	over, err := Overapproximate(q, TW(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !Contained(q, over) {
		t.Fatal("q must be contained in its overapproximation")
	}
	ok, err := IsOverapproximation(q, over, TW(1), DefaultOptions())
	if err != nil || !ok {
		t.Fatalf("IsOverapproximation = %v, %v", ok, err)
	}
	all, err := Overapproximations(q, TW(1), DefaultOptions())
	if err != nil || len(all) != 1 {
		t.Fatalf("Overapproximations = %v, %v", all, err)
	}
	// Sandwich on a concrete database: under ⊆ exact ⊆ over.
	under, err := Approximate(q, TW(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := NewStructure()
	db.Add("E", 1, 2)
	db.Add("E", 2, 3)
	db.Add("E", 3, 1)
	db.Add("E", 4, 5)
	uAns := EvalBool(under, db)
	eAns := EvalBool(q, db)
	oAns := EvalBool(over, db)
	if uAns && !eAns || eAns && !oAns {
		t.Fatalf("sandwich violated: under=%v exact=%v over=%v", uAns, eAns, oAns)
	}
	if !eAns || !oAns {
		t.Fatal("triangle present: exact and over must hold")
	}
}

func TestFacadeCountAndTrivial(t *testing.T) {
	q := MustParse("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)")
	n, err := CountApproximations(q, AC(), DefaultOptions())
	if err != nil || n != 3 {
		t.Fatalf("count = %d (err %v), want 3 (Example 6.6)", n, err)
	}
	triv := Trivial(q)
	if len(triv.Atoms) != 1 || triv.Atoms[0].Rel != "R" {
		t.Fatalf("Trivial = %v", triv)
	}
	if TrivialBipartite().NumJoins() != 1 {
		t.Fatal("Q_triv2 should have one join")
	}
}
