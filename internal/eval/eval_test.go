package eval

import (
	"context"
	"fmt"
	"math/rand"
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
	ans, err := p.Eval(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	return ans
}

func TestYannakakisRejectsCyclic(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	if m := NewPlan(q).Mode(); m != PlanNaive {
		t.Fatalf("cyclic query planned as %v, want naive", m)
	}
	if _, err := Program(q); err != ErrNotAcyclic {
		t.Fatalf("err = %v, want ErrNotAcyclic", err)
	}
}

func TestYannakakisBooleanSemijoinOnly(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z)")
	p := NewPlan(q)
	ok, err := p.EvalBool(context.Background(), graphDB([2]int{0, 1}, [2]int{1, 2}))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	ok, err = p.EvalBool(context.Background(), graphDB([2]int{0, 1}, [2]int{2, 3}))
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

func TestProgramListsSemijoins(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,w)")
	prog, err := Program(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Atoms) != 3 {
		t.Fatalf("atoms = %v", prog.Atoms)
	}
	// A full reduction does 2 bottom-up + 2 top-down steps for 3 atoms.
	if len(prog.Steps) != 4 {
		t.Fatalf("steps = %v, want 4", prog.Steps)
	}
	if _, err := Program(cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")); err == nil {
		t.Fatal("cyclic query should not yield a program")
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
		if acyclicOnly {
			if _, err := Program(q); err != nil {
				continue
			}
		}
		return q
	}
}

func randomDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
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
		fast, err := NewPlan(q).Eval(context.Background(), db)
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
		ok, err := NewPlan(q).EvalBool(context.Background(), db)
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
