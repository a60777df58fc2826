package hom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// dicycle returns the directed cycle on n nodes.
func dicycle(n int) *relstr.Structure {
	s := relstr.New()
	for i := 0; i < n; i++ {
		s.Add("E", i, (i+1)%n)
	}
	return s
}

// dipath returns the directed path 0→1→…→n.
func dipath(n int) *relstr.Structure {
	s := relstr.New()
	for i := 0; i < n; i++ {
		s.Add("E", i, i+1)
	}
	return s
}

// k2both is K2 with edges in both directions (the paper's K2↔).
func k2both() *relstr.Structure {
	s := relstr.New()
	s.Add("E", 0, 1)
	s.Add("E", 1, 0)
	return s
}

func loop() *relstr.Structure {
	s := relstr.New()
	s.Add("E", 0, 0)
	return s
}

func TestExistsBasics(t *testing.T) {
	if !Exists(dipath(3), dipath(3), nil) {
		t.Fatal("identity homomorphism not found")
	}
	if !Exists(dipath(3), dipath(5), nil) {
		t.Fatal("path 3 should map into path 5")
	}
	if Exists(dipath(5), dipath(3), nil) {
		t.Fatal("path 5 cannot map into path 3 (levels)")
	}
	if !Exists(dicycle(3), loop(), nil) {
		t.Fatal("everything maps to the loop")
	}
	if Exists(dicycle(3), dipath(10), nil) {
		t.Fatal("a directed cycle cannot map into a path")
	}
	if Exists(dicycle(3), k2both(), nil) {
		t.Fatal("odd cycle is not 2-colorable")
	}
	if !Exists(dicycle(4), k2both(), nil) {
		t.Fatal("C4 is 2-colorable")
	}
	if !Exists(dicycle(6), dicycle(3), nil) {
		t.Fatal("C6 wraps around C3")
	}
	if Exists(dicycle(3), dicycle(6), nil) {
		t.Fatal("C3 should not map to C6")
	}
}

func TestExistsEmptyTargetRelation(t *testing.T) {
	a := relstr.New()
	a.Add("E", 0, 1)
	b := relstr.New()
	b.Add("F", 0, 1)
	if Exists(a, b, nil) {
		t.Fatal("target lacks relation E entirely")
	}
}

func TestFindReturnsValidHom(t *testing.T) {
	a := dicycle(6)
	b := dicycle(3)
	h, ok := Find(a, b, nil)
	if !ok {
		t.Fatal("no hom found")
	}
	for _, tpl := range a.Tuples("E") {
		if !b.Has("E", h[tpl[0]], h[tpl[1]]) {
			t.Fatalf("h does not preserve edge %v", tpl)
		}
	}
}

func TestFindWithPre(t *testing.T) {
	a := dipath(2) // 0→1→2
	b := dipath(4)
	h, ok := Find(a, b, map[int]int{0: 1})
	if !ok || h[0] != 1 || h[1] != 2 || h[2] != 3 {
		t.Fatalf("h = %v, ok = %v", h, ok)
	}
	if _, ok := Find(a, b, map[int]int{0: 4}); ok {
		t.Fatal("pre mapping start of path to sink should fail")
	}
}

func TestPreInconsistentWithAtoms(t *testing.T) {
	a := relstr.New()
	a.Add("E", 0, 1)
	b := relstr.New()
	b.Add("E", 5, 6)
	if Exists(a, b, map[int]int{0: 6, 1: 5}) {
		t.Fatal("pre reverses the edge; must fail")
	}
	if !Exists(a, b, map[int]int{0: 5, 1: 6}) {
		t.Fatal("pre along the edge must succeed")
	}
}

func TestCountHoms(t *testing.T) {
	// Single edge into K2↔: 2 homs (0↦0,1↦1) and (0↦1,1↦0).
	if n := Count(dipath(1), k2both(), nil); n != 2 {
		t.Fatalf("Count(edge→K2↔) = %d, want 2", n)
	}
	// Single edge into loop: 1 hom.
	if n := Count(dipath(1), loop(), nil); n != 1 {
		t.Fatalf("Count(edge→loop) = %d, want 1", n)
	}
	// Edge into path of length 2: 0→1,1→2: 2 homs.
	if n := Count(dipath(1), dipath(2), nil); n != 2 {
		t.Fatalf("Count(edge→P2) = %d, want 2", n)
	}
	// C4 into K2↔: homs = proper 2-colorings with orientation... count
	// directly: each node maps to 0/1 alternating; 2 choices.
	if n := Count(dicycle(4), k2both(), nil); n != 2 {
		t.Fatalf("Count(C4→K2↔) = %d, want 2", n)
	}
}

func TestHigherArityPatterns(t *testing.T) {
	a := relstr.New()
	a.Add("R", 0, 0, 1) // repeated variable in one atom
	b := relstr.New()
	b.Add("R", 1, 2, 3) // no repeat at positions 0,1
	if Exists(a, b, nil) {
		t.Fatal("R(x,x,y) should not map to R(1,2,3)")
	}
	b.Add("R", 4, 4, 5)
	if !Exists(a, b, nil) {
		t.Fatal("R(x,x,y) should map to R(4,4,5)")
	}
}

func TestProjectEvaluatesQueries(t *testing.T) {
	// Query Q(x) :- E(x,y),E(y,x) on a graph with one 2-cycle and one
	// stray edge: answers are the 2-cycle's nodes.
	q := cq.MustParse("Q(x) :- E(x,y), E(y,x)")
	tb := q.Tableau()
	db := relstr.New()
	db.Add("E", 10, 11)
	db.Add("E", 11, 10)
	db.Add("E", 11, 12)
	var got []int
	Project(tb.S, db, nil, tb.Dist, func(vals []int) bool {
		got = append(got, vals[0])
		return true
	})
	if len(got) != 2 {
		t.Fatalf("answers = %v, want the two 2-cycle nodes", got)
	}
	seen := map[int]bool{got[0]: true, got[1]: true}
	if !seen[10] || !seen[11] {
		t.Fatalf("answers = %v, want {10,11}", got)
	}
}

func TestProjectBooleanQuery(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	tb := q.Tableau()
	tri := dicycle(3)
	calls := 0
	Project(tb.S, tri, nil, tb.Dist, func(vals []int) bool {
		if len(vals) != 0 {
			t.Fatalf("Boolean answer has values %v", vals)
		}
		calls++
		return true
	})
	if calls != 1 {
		t.Fatalf("Boolean true should emit exactly one empty tuple, got %d", calls)
	}
	calls = 0
	Project(tb.S, dipath(5), nil, tb.Dist, func([]int) bool { calls++; return true })
	if calls != 0 {
		t.Fatal("Boolean false should emit nothing")
	}
}

func TestCoreOfAugmentedLoop(t *testing.T) {
	s := relstr.New()
	s.Add("E", 0, 1)
	s.Add("E", 1, 1)
	core, retract := Core(s, nil)
	if core.DomainSize() != 1 || !core.Has("E", 1, 1) {
		t.Fatalf("core = %v, want single loop on 1", core)
	}
	if retract[0] != 1 || retract[1] != 1 {
		t.Fatalf("retract = %v", retract)
	}
}

func TestCoreRespectsDistinguished(t *testing.T) {
	// Same structure, but 0 is distinguished: cannot be collapsed.
	s := relstr.New()
	s.Add("E", 0, 1)
	s.Add("E", 1, 1)
	core, _ := Core(s, []int{0})
	if core.DomainSize() != 2 {
		t.Fatalf("core with dist = %v, want both elements", core)
	}
}

func TestCoreOfEvenCycle(t *testing.T) {
	// C4 (directed) is a core: no proper retract (C4 ↛ shorter directed
	// structures of itself).
	c4 := dicycle(4)
	core, _ := Core(c4, nil)
	if core.DomainSize() != 4 {
		t.Fatalf("directed C4 should be a core, got %v", core)
	}
	if !IsCore(c4, nil) {
		t.Fatal("IsCore(C4) = false")
	}
}

func TestCoreBipartiteDoubleEdge(t *testing.T) {
	// An undirected even cycle (as digraph with both directions) of
	// length 4 retracts onto K2↔.
	s := relstr.New()
	for i := 0; i < 4; i++ {
		s.Add("E", i, (i+1)%4)
		s.Add("E", (i+1)%4, i)
	}
	core, _ := Core(s, nil)
	if core.DomainSize() != 2 || core.NumFacts() != 2 {
		t.Fatalf("core of C4↔ = %v, want K2↔", core)
	}
}

func TestMinimize(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(x,z)")
	m := Minimize(q)
	if len(m.Atoms) != 1 {
		t.Fatalf("Minimize = %v, want single atom", m)
	}
	if !Equivalent(q, m) {
		t.Fatal("minimized query not equivalent")
	}
	// Free variables block collapses.
	q2 := cq.MustParse("Q(y,z) :- E(x,y), E(x,z)")
	m2 := Minimize(q2)
	if len(m2.Atoms) != 2 {
		t.Fatalf("Minimize(%v) = %v, should keep both atoms", q2, m2)
	}
}

func TestMinimizePreservesHead(t *testing.T) {
	q := cq.MustParse("Q(x,x) :- E(x,y), E(y,x), E(x,z), E(z,x)")
	m := Minimize(q)
	if len(m.Head) != 2 || m.Head[0] != m.Head[1] {
		t.Fatalf("head = %v", m.Head)
	}
	if !Equivalent(q, m) {
		t.Fatal("not equivalent after minimize")
	}
}

func TestContainment(t *testing.T) {
	long := cq.MustParse("Q() :- E(x,y), E(y,z)")
	short := cq.MustParse("Q() :- E(x,y)")
	if !Contained(long, short) {
		t.Fatal("path-2 query should be contained in edge query")
	}
	if Contained(short, long) {
		t.Fatal("edge query is not contained in path-2 query")
	}
	if !ProperlyContained(long, short) {
		t.Fatal("containment should be proper")
	}
	// Classic: C3 query vs loop query.
	c3 := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	lp := cq.MustParse("Q() :- E(x,x)")
	if !Contained(lp, c3) {
		t.Fatal("loop query ⊆ C3 query")
	}
	if Contained(c3, lp) {
		t.Fatal("C3 query ⊄ loop query")
	}
}

func TestContainmentWithHeads(t *testing.T) {
	a := cq.MustParse("Q(x) :- E(x,y)")
	b := cq.MustParse("Q(x) :- E(x,y), E(y,z)")
	if !Contained(b, a) || Contained(a, b) {
		t.Fatal("head-preserving containment broken")
	}
	bool1 := cq.MustParse("Q() :- E(x,y)")
	if Contained(a, bool1) || Contained(bool1, a) {
		t.Fatal("different arities must be incomparable")
	}
}

func TestEquivalentDifferentShapes(t *testing.T) {
	a := cq.MustParse("Q() :- E(x,y), E(y,z), E(x,w)")
	b := cq.MustParse("Q() :- E(x,y), E(y,z)")
	if !Equivalent(a, b) {
		t.Fatal("redundant-atom query should be equivalent to its core")
	}
}

func TestMapsPointed(t *testing.T) {
	p3 := Pointed{S: dipath(3), Dist: []int{0, 3}}
	p5 := Pointed{S: dipath(5), Dist: []int{0, 5}}
	// P3 with endpoints dist → P5 with endpoints dist: needs endpoints
	// to land on 0 and 5 but a 3-path can't stretch: no hom.
	if Maps(p3, p5) {
		t.Fatal("P3 endpoints cannot map onto P5 endpoints")
	}
	// Without endpoint constraints it maps fine.
	if !Maps(Pointed{S: dipath(3)}, Pointed{S: dipath(5)}) {
		t.Fatal("P3 → P5 should hold")
	}
}

func TestMapsRepeatedDistinguished(t *testing.T) {
	// Dist (x,x) forces both positions to the same target element.
	s := relstr.New()
	s.Add("E", 0, 1)
	a := Pointed{S: s, Dist: []int{0, 0}}
	b := Pointed{S: k2both(), Dist: []int{0, 1}}
	if Maps(a, b) {
		t.Fatal("repeated dist cannot map to distinct dist")
	}
	c := Pointed{S: k2both(), Dist: []int{0, 0}}
	if !Maps(a, c) {
		t.Fatal("repeated dist to repeated dist should map")
	}
}

func TestMinimalElements(t *testing.T) {
	// loop ⥿ K2↔ ⥿ C4: minimal (in →) is the loop... order: loop → K2↔?
	// loop maps nowhere but to loops. K2↔ → loop. C4 → K2↔ → loop.
	// Minimal = elements with nothing strictly below: the loop has
	// nothing mapping into it without a back-map except... K2↔ → loop
	// and loop ↛ K2↔, so loop is NOT minimal. C4: K2↔→C4? K2↔ needs a
	// 2-cycle in C4: no. loop→C4: no. So C4 is minimal. K2↔: C4 → K2↔
	// and K2↔ ↛ C4, so K2↔ not minimal.
	items := []Pointed{
		{S: loop()},
		{S: k2both()},
		{S: dicycle(4)},
	}
	min := MinimalElements(items)
	if len(min) != 1 || min[0] != 2 {
		t.Fatalf("MinimalElements = %v, want [2]", min)
	}
}

func TestEquivClasses(t *testing.T) {
	items := []Pointed{
		{S: dipath(3)},
		{S: dipath(3)},
		{S: loop()},
		{S: dipath(2)}, // P2 ≁ P3 (levels), so its own class
	}
	classes := EquivClasses(items)
	if len(classes) != 3 {
		t.Fatalf("classes = %v, want 3 classes", classes)
	}
	if len(classes[0]) != 2 {
		t.Fatalf("first class = %v, want {0,1}", classes[0])
	}
}

// Property: core is hom-equivalent to the original and idempotent.
func TestQuickCoreProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := relstr.New()
		n := 2 + rng.Intn(4)
		for i := 0; i < n+2; i++ {
			s.Add("E", rng.Intn(n), rng.Intn(n))
		}
		core, _ := Core(s, nil)
		if !Exists(s, core, nil) || !Exists(core, s, nil) {
			return false
		}
		core2, _ := Core(core, nil)
		return core2.DomainSize() == core.DomainSize() &&
			core2.NumFacts() == core.NumFacts() && IsCore(core, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: homomorphisms compose.
func TestQuickComposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n, m int) *relstr.Structure {
			s := relstr.New()
			s.Declare("E", 2)
			for i := 0; i < m; i++ {
				s.Add("E", rng.Intn(n), rng.Intn(n))
			}
			return s
		}
		a, b := mk(4, 5), mk(4, 7)
		h, ok := Find(a, b, nil)
		if !ok {
			return true
		}
		c := mk(3, 8)
		g, ok := Find(b, c, nil)
		if !ok {
			return true
		}
		// g∘h must be a homomorphism a → c.
		for _, tpl := range a.Tuples("E") {
			if !c.Has("E", g[h[tpl[0]]], g[h[tpl[1]]]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: quotient maps are homomorphisms: T → T/π for every π.
func TestQuickQuotientIsHom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := relstr.New()
		s.Declare("E", 2)
		n := 2 + rng.Intn(3)
		for i := 0; i < n+1; i++ {
			s.Add("E", rng.Intn(n), rng.Intn(n))
		}
		ok := true
		dom := s.Domain()
		relstr.ForEachPartition(len(dom), func(block []int, _ int) bool {
			p := relstr.Partition{}
			first := map[int]int{}
			for j, e := range dom {
				if _, ok := first[block[j]]; !ok {
					first[block[j]] = e
				}
				p[e] = first[block[j]]
			}
			q := s.QuotientBy(p)
			if !Exists(s, q, nil) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
