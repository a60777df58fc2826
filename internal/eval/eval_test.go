package eval

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

func graphDB(edges ...[2]int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	for _, e := range edges {
		db.Add("E", e[0], e[1])
	}
	return db
}

func cycleDB(n int) *relstr.Structure {
	db := relstr.New()
	for i := 0; i < n; i++ {
		db.Add("E", i, (i+1)%n)
	}
	return db
}

func TestNaivePathQuery(t *testing.T) {
	q := cq.MustParse("Q(x,z) :- E(x,y), E(y,z)")
	db := graphDB([2]int{1, 2}, [2]int{2, 3}, [2]int{2, 4})
	ans := Naive(q, db)
	want := []relstr.Tuple{{1, 3}, {1, 4}}
	if len(ans) != 2 || !ans.Contains(want[0]) || !ans.Contains(want[1]) {
		t.Fatalf("answers = %v, want %v", ans, want)
	}
}

func TestNaiveBooleanTriangle(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	if !NaiveBool(q, cycleDB(3)) {
		t.Fatal("triangle present")
	}
	if NaiveBool(q, cycleDB(4)) {
		t.Fatal("no triangle in C4")
	}
	// Boolean true answer is the empty tuple.
	ans := Naive(q, cycleDB(3))
	if len(ans) != 1 || len(ans[0]) != 0 {
		t.Fatalf("Boolean true answers = %v", ans)
	}
}

func TestYannakakisMatchesNaiveOnPath(t *testing.T) {
	q := cq.MustParse("Q(x,w) :- E(x,y), E(y,z), E(z,w)")
	db := graphDB(
		[2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4},
		[2]int{1, 3}, [2]int{0, 2},
	)
	assertSameAnswers(t, yannakakis(t, q, db), Naive(q, db))
}

// yannakakis evaluates an acyclic q through a fresh plan, failing the
// test if the plan did not select the semijoin pipeline.
func yannakakis(t *testing.T, q *cq.Query, db *relstr.Structure) Answers {
	t.Helper()
	p := NewPlan(q)
	if p.Mode() != PlanYannakakis {
		t.Fatalf("%v: plan mode %v, want yannakakis", q, p.Mode())
	}
	ans, _, err := p.Eval(context.Background(), relstr.Borrow(db), Read{})
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	if m := NewPlan(q).Mode(); m != PlanBags {
		t.Fatalf("cyclic query planned as %v, want bags", m)
	}
}

func TestYannakakisBooleanSemijoinOnly(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z)")
	p := NewPlan(q)
	ok, _, err := p.Bool(context.Background(), relstr.Borrow(graphDB([2]int{0, 1}, [2]int{1, 2})), Read{})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	ok, _, err = p.Bool(context.Background(), relstr.Borrow(graphDB([2]int{0, 1}, [2]int{2, 3})), Read{})
	if err != nil || ok {
		t.Fatalf("disconnected edges have no path: ok=%v err=%v", ok, err)
	}
}

func TestYannakakisRepeatedVars(t *testing.T) {
	q := cq.MustParse("Q(x) :- E(x,x)")
	db := graphDB([2]int{0, 0}, [2]int{1, 2}, [2]int{3, 3})
	ans := yannakakis(t, q, db)
	if len(ans) != 2 || !ans.Contains(relstr.Tuple{0}) || !ans.Contains(relstr.Tuple{3}) {
		t.Fatalf("answers = %v, want loops {0,3}", ans)
	}
}

func TestYannakakisDisconnectedCrossProduct(t *testing.T) {
	q := cq.MustParse("Q(x,u) :- E(x,y), F(u,v)")
	db := relstr.New()
	db.Add("E", 1, 2)
	db.Add("E", 3, 4)
	db.Add("F", 7, 8)
	ans := yannakakis(t, q, db)
	if len(ans) != 2 || !ans.Contains(relstr.Tuple{1, 7}) || !ans.Contains(relstr.Tuple{3, 7}) {
		t.Fatalf("answers = %v, want {(1,7),(3,7)}", ans)
	}
}

func TestYannakakisRepeatedHead(t *testing.T) {
	q := cq.MustParse("Q(x,x) :- E(x,y)")
	db := graphDB([2]int{5, 6})
	ans := yannakakis(t, q, db)
	if len(ans) != 1 || !ans[0].Equal(relstr.Tuple{5, 5}) {
		t.Fatalf("answers = %v, want (5,5)", ans)
	}
}

func TestEvalAutoSelection(t *testing.T) {
	acyc := cq.MustParse("Q(x) :- E(x,y), E(y,z)")
	cyc := cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	db := cycleDB(5)
	assertSameAnswers(t, Eval(acyc, db), Naive(acyc, db))
	assertSameAnswers(t, Eval(cyc, db), Naive(cyc, db))
	if EvalBool(cyc, cycleDB(4)) {
		t.Fatal("C3 query should be false on C4")
	}
	if !EvalBool(acyc, cycleDB(4)) {
		t.Fatal("path query should hold on C4")
	}
}

func randomQuery(rng *rand.Rand, acyclicOnly bool) *cq.Query {
	for {
		nv := 2 + rng.Intn(4)
		na := 1 + rng.Intn(4)
		q := &cq.Query{Name: "Q"}
		vars := make([]string, nv)
		for i := range vars {
			vars[i] = fmt.Sprintf("v%d", i)
		}
		used := map[string]bool{}
		for i := 0; i < na; i++ {
			a := cq.Atom{Rel: "E", Args: []string{
				vars[rng.Intn(nv)], vars[rng.Intn(nv)],
			}}
			q.Atoms = append(q.Atoms, a)
			used[a.Args[0]] = true
			used[a.Args[1]] = true
		}
		// Head: up to 2 used variables.
		var pool []string
		for _, v := range vars {
			if used[v] {
				pool = append(pool, v)
			}
		}
		for i := 0; i < rng.Intn(3) && len(pool) > 0; i++ {
			q.Head = append(q.Head, pool[rng.Intn(len(pool))])
		}
		if acyclicOnly && NewPlan(q).Mode() != PlanYannakakis {
			continue
		}
		return q
	}
}

// randomCoreQuery is the generator leg whose DP or node count cores
// often sit below the plan's tree root: a head-only core path of two or
// three E or T atoms (every variable in the head, none of them covering
// the rest), with three to six existential atoms hung off it — E and T
// atoms with fresh variables and unary U filters — in shuffled order, so
// GYO often roots the tree at an existential atom the count prunes.
// The query is acyclic by construction: each atom meets the earlier
// ones in one variable.
func randomCoreQuery(rng *rand.Rand) *cq.Query {
	q := &cq.Query{Name: "Q"}
	nv := 0
	fresh := func() string { nv++; return fmt.Sprintf("v%d", nv-1) }
	x := fresh()
	head := []string{x}
	for k := 2 + rng.Intn(2); k > 0; k-- {
		if rng.Intn(3) == 0 {
			y, z := fresh(), fresh()
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "T", Args: []string{x, y, z}})
			head, x = append(head, y, z), z
		} else {
			y := fresh()
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{x, y}})
			head, x = append(head, y), y
		}
	}
	vars := append([]string(nil), head...)
	for k := 3 + rng.Intn(4); k > 0; k-- {
		at := vars[rng.Intn(len(vars))]
		switch rng.Intn(3) {
		case 0:
			e := fresh()
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{e, at}})
			vars = append(vars, e)
		case 1:
			e, f := fresh(), fresh()
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "T", Args: []string{e, at, f}})
			vars = append(vars, e, f)
		default:
			q.Atoms = append(q.Atoms, cq.Atom{Rel: "U", Args: []string{at}})
		}
	}
	rng.Shuffle(len(q.Atoms), func(i, j int) { q.Atoms[i], q.Atoms[j] = q.Atoms[j], q.Atoms[i] })
	rng.Shuffle(len(head), func(i, j int) { head[i], head[j] = head[j], head[i] })
	if rng.Intn(4) == 0 {
		head = append(head, head[0])
	}
	q.Head = head
	return q
}

// randomDB draws m E edges over n nodes. U and T are declared for
// randomCoreQuery's relations; randomCoreDB fills them.
func randomDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	db.Declare("U", 1)
	db.Declare("T", 3)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
	}
	return db
}

// randomCoreDB is randomDB plus about n/2 U facts and m T facts.
func randomCoreDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := randomDB(rng, n, m)
	for i := 0; i < (n+1)/2; i++ {
		db.Add("U", rng.Intn(n))
	}
	for i := 0; i < m; i++ {
		db.Add("T", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	return db
}

// Property: Yannakakis agrees with the naive engine on random acyclic
// queries and databases.
func TestQuickYannakakisEquivNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 8)
		fast, _, err := NewPlan(q).Eval(context.Background(), relstr.Borrow(db), Read{})
		if err != nil {
			return false
		}
		return sameAnswers(fast, Naive(q, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: Boolean plan evaluation agrees with (len(answers) > 0).
func TestQuickBoolAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 6)
		ok, _, err := NewPlan(q).Bool(context.Background(), relstr.Borrow(db), Read{})
		if err != nil {
			return false
		}
		return ok == (len(Naive(q, db)) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func sameAnswers(a, b Answers) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func assertSameAnswers(t *testing.T, a, b Answers) {
	t.Helper()
	if !sameAnswers(a, b) {
		t.Fatalf("answer sets differ:\n  a = %v\n  b = %v", a, b)
	}
}

// randomDisconnectedQuery is the generator leg of variable-disjoint
// components: two randomCoreQuery draws, the second's variables
// renamed apart, under one head. Each component is a join tree of its
// own, so counts and deltas multiply across trees.
func randomDisconnectedQuery(rng *rand.Rand) *cq.Query {
	q, r := randomCoreQuery(rng), randomCoreQuery(rng)
	rename := func(v string) string { return "w" + v }
	for _, a := range r.Atoms {
		b := cq.Atom{Rel: a.Rel}
		for _, v := range a.Args {
			b.Args = append(b.Args, rename(v))
		}
		q.Atoms = append(q.Atoms, b)
	}
	for _, v := range r.Head {
		q.Head = append(q.Head, rename(v))
	}
	return q
}

// TestPlanTreesAreComponents pins the join forest's shape: the trees of
// an acyclic plan are exactly the connected components of its
// shared-variable graph (GYO chains no variable-disjoint atoms), so no
// step of the search's, the count's or the estimate's pass has an
// empty key.
func TestPlanTreesAreComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gens := []func(*rand.Rand) *cq.Query{
		func(rng *rand.Rand) *cq.Query { return randomQuery(rng, true) },
		randomDisconnectedQuery,
		randomProjectingQuery,
	}
	multi := 0
	for k := range 1500 {
		q := gens[k%len(gens)](rng)
		p := NewPlan(q)
		if p.mode != PlanYannakakis {
			continue
		}
		// The components, by union-find over shared variables.
		comp := make([]int, len(p.atoms))
		for i := range comp {
			comp[i] = i
		}
		var find func(i int) int
		find = func(i int) int {
			if comp[i] != i {
				comp[i] = find(comp[i])
			}
			return comp[i]
		}
		for i := range p.vars {
			for j := range i {
				if len(sharedVars(p.vars[i], p.vars[j])) > 0 {
					comp[find(i)] = find(j)
				}
			}
		}
		root := func(i int) int {
			for p.jt.Parent[i] != -1 {
				i = p.jt.Parent[i]
			}
			return i
		}
		for i := range p.atoms {
			for j := range i {
				if (root(i) == root(j)) != (find(i) == find(j)) {
					t.Fatalf("%v: atoms %d and %d: same tree %v, same component %v (parents %v)",
						q, i, j, root(i) == root(j), find(i) == find(j), p.jt.Parent)
				}
			}
		}
		if len(p.sched.roots) > 1 {
			multi++
		}
		for _, sc := range []*schedule{p.sched, p.csched.sched, p.csched.est} {
			if sc == nil {
				continue
			}
			for _, steps := range sc.downOf {
				for _, st := range steps {
					if len(st.tCols) == 0 {
						t.Fatalf("%v: step %d→%d has an empty key", q, st.source, st.target)
					}
				}
			}
		}
	}
	if multi == 0 {
		t.Fatal("no plan with two or more trees drawn")
	}
	t.Logf("%d plans with two or more trees", multi)
}

// assertRootsInHeadCore checks the plan's one rooting: every tree with
// head variables is rooted in its pruned core, and every node outside
// the core lies under an existence bag of the plan's search program,
// which a search over a reduced forest never visits.
func assertRootsInHeadCore(t *testing.T, name string, p *Plan) {
	t.Helper()
	bagOf := make([]int, len(p.atoms))
	for b, bag := range p.bags.bags {
		bagOf[bag.atoms[0]] = b
	}
	for ti := range p.csched.trees {
		tree := &p.csched.trees[ti]
		if tree.kind == kindUnit {
			continue
		}
		if !slices.Contains(tree.core, tree.root) {
			t.Fatalf("%s: tree %d is rooted at %d, outside its core %v", name, ti, tree.root, tree.core)
		}
		for _, i := range tree.nodes {
			if slices.Contains(tree.core, i) {
				continue
			}
			b := bagOf[i]
			for b >= 0 && !p.bags.bags[b].exist {
				b = p.bags.bags[b].parent
			}
			if b < 0 {
				t.Fatalf("%s: node %d of tree %d lies outside the core %v and under no existence bag", name, i, ti, tree.core)
			}
		}
	}
}

// TestPlanRootsInHeadCore holds every acyclic plan to its rooting: each
// tree with head variables is rooted in its pruned head core, and the
// pruned nodes are existence checks of the search.
func TestPlanRootsInHeadCore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gens := []func(*rand.Rand) *cq.Query{
		func(rng *rand.Rand) *cq.Query { return randomQuery(rng, true) },
		randomCoreQuery,
		randomProjectingQuery,
	}
	pruned := 0
	for k := range 3000 {
		q := gens[k%len(gens)](rng)
		p := NewPlan(q)
		if p.mode != PlanYannakakis {
			continue
		}
		assertRootsInHeadCore(t, q.String(), p)
		for _, tree := range p.csched.trees {
			if tree.kind != kindUnit && len(tree.core) < len(tree.nodes) {
				pruned++
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no tree with pruned nodes drawn")
	}
	t.Logf("%d trees with pruned nodes", pruned)
}
