package eval

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// advance applies d to sn via the snapshot fork and the incremental
// state in lockstep, returning the new snapshot and the diff.
func advance(t *testing.T, s *IncrState, sn *relstr.Snapshot, d *relstr.Delta) (*relstr.Snapshot, *IncrDiff) {
	t.Helper()
	next, err := sn.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := s.Apply(context.Background(), d, sn, next)
	if err != nil {
		t.Fatal(err)
	}
	return next, diff
}

// oracleDiff recomputes both answer sets from scratch and returns the
// sorted set differences — the specification Apply is held to.
func oracleDiff(t *testing.T, p *Plan, oldSn, newSn *relstr.Snapshot) (added, removed Answers) {
	t.Helper()
	ctx := context.Background()
	before, _, err := p.Eval(ctx, oldSn, Read{Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := p.Eval(ctx, newSn, Read{Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	return diffAnswers(before, after)
}

func assertDiff(t *testing.T, diff *IncrDiff, wantAdd, wantRem Answers) {
	t.Helper()
	if !sameAnswers(diff.Added, wantAdd) || !sameAnswers(diff.Removed, wantRem) {
		t.Fatalf("diff mismatch:\n  added   %v want %v\n  removed %v want %v",
			diff.Added, wantAdd, diff.Removed, wantRem)
	}
}

func TestIncrChainInsertDelete(t *testing.T) {
	q := cq.MustParse("Q(x,w) :- E(x,y), E(y,z), E(z,w)")
	p := NewPlan(q)
	if !p.IncrSupported() {
		t.Fatal("chain plan should support incremental maintenance")
	}
	db := graphDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3})
	sn := relstr.NewSnapshot(db)
	s, err := p.NewIncrState(context.Background(), sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswers(s.Answers(), Answers{{0, 3}}) {
		t.Fatalf("initial answers = %v", s.Answers())
	}

	// Insert an edge extending the chain: one new path appears.
	next, diff := advance(t, s, sn, relstr.NewDelta().Insert("E", 3, 4))
	if diff.Fallback {
		t.Fatalf("unexpected fallback: %s", diff.Reason)
	}
	assertDiff(t, diff, Answers{{1, 4}}, nil)
	if !sameAnswers(s.Answers(), Answers{{0, 3}, {1, 4}}) {
		t.Fatalf("answers after insert = %v", s.Answers())
	}
	sn = next

	// Delete a middle edge: both paths vanish.
	next, diff = advance(t, s, sn, relstr.NewDelta().Delete("E", 2, 3))
	if diff.Fallback {
		t.Fatalf("unexpected fallback: %s", diff.Reason)
	}
	assertDiff(t, diff, nil, Answers{{0, 3}, {1, 4}})
	if len(s.Answers()) != 0 {
		t.Fatalf("answers after delete = %v", s.Answers())
	}
	if s.Version() != next.Version() {
		t.Fatalf("version = %d, snapshot %d", s.Version(), next.Version())
	}
	st := p.IndexStats()
	if st.IncrementalEvals != 2 || st.IncrFallbacks != 0 {
		t.Fatalf("stats = %+v, want 2 incremental evals and no fallbacks", st)
	}
}

// An empty delta forks nothing: Update returns the same snapshot and
// Apply reports an empty diff without touching the counters.
func TestIncrEmptyDeltaNoOp(t *testing.T) {
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	sn := relstr.NewSnapshot(graphDB([2]int{1, 2}, [2]int{2, 3}))
	s, err := p.NewIncrState(context.Background(), sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := relstr.NewDelta()
	if !d.Empty() {
		t.Fatal("fresh delta should be empty")
	}
	next, err := sn.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	if next != sn {
		t.Fatal("empty delta must return the same snapshot")
	}
	diff, err := s.Apply(context.Background(), d, sn, next)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Fallback || len(diff.Added)+len(diff.Removed) != 0 {
		t.Fatalf("empty delta diff = %+v", diff)
	}
}

// An Apply whose effective delta changes no answer copies neither the
// answer set nor the tree's contribution: the state keeps its slices,
// and the pair of Applies below allocates about as often at 200×200
// answers as at 20×20, and far fewer bytes than one copy of the
// answers.
func TestIncrEmptyDiffSharesAnswers(t *testing.T) {
	ctx := context.Background()
	p := NewPlan(cq.MustParse("Q(x,w) :- E(x,y), F(y,w)"))
	var allocs [2]float64
	for k, n := range []int{20, 200} {
		db := relstr.New()
		for i := 0; i < n; i++ {
			db.Add("E", i, 0)
			db.Add("F", 0, i)
		}
		sn := relstr.NewSnapshot(db)
		s, err := p.NewIncrState(ctx, sn, 1)
		if err != nil {
			t.Fatal(err)
		}
		// n+5 has no F edge: inserting and deleting E(0, n+5) is an
		// effective change with no answer behind it.
		ins := relstr.NewDelta().Insert("E", 0, n+5)
		del := relstr.NewDelta().Delete("E", 0, n+5)
		sn1, err := sn.Update(ins)
		if err != nil {
			t.Fatal(err)
		}
		ans := s.Answers()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs[k] = testing.AllocsPerRun(runs, func() {
			for _, step := range []struct {
				d        *relstr.Delta
				from, to *relstr.Snapshot
			}{{ins, sn, sn1}, {del, sn1, sn}} {
				diff, err := s.Apply(ctx, step.d, step.from, step.to)
				if err != nil || diff.Fallback || len(diff.Added)+len(diff.Removed) != 0 {
					t.Fatalf("diff %+v, err %v", diff, err)
				}
			}
		})
		runtime.ReadMemStats(&after)
		if got := s.Answers(); len(got) != n*n || &got[0] != &ans[0] {
			t.Fatalf("n=%d: an Apply that changed no answer copied the answer set", n)
		}
		perPair := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if copyBytes := uint64(n * n * int(unsafe.Sizeof(relstr.Tuple{}))); n == 200 && perPair > copyBytes/8 {
			t.Fatalf("n=%d: an empty-diff Apply pair allocates %d bytes; one copy of the answers is %d", n, perPair, copyBytes)
		}
	}
	// Pooled search state makes the count wobble (the race detector
	// drops pooled items at random); a copy per answer would multiply it.
	if allocs[1] > 2*allocs[0] {
		t.Fatalf("an empty-diff Apply pair allocates %v times at 200×200 answers, %v at 20×20", allocs[1], allocs[0])
	}
}

// Deletes of absent facts and insert+delete of the same fact in one
// delta cancel to an effective no-op; the reduced state stays valid.
func TestIncrCancellingDelta(t *testing.T) {
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	sn := relstr.NewSnapshot(graphDB([2]int{1, 2}, [2]int{2, 3}))
	s, err := p.NewIncrState(context.Background(), sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*relstr.Delta{
		relstr.NewDelta().Delete("E", 9, 9),                   // absent fact
		relstr.NewDelta().Insert("E", 7, 8).Delete("E", 7, 8), // cancel within delta
		relstr.NewDelta().Insert("E", 1, 2),                   // already present
		relstr.NewDelta().Delete("E", 9, 9).Insert("E", 2, 3), // both kinds of no-op
	}
	for _, d := range cases {
		var diff *IncrDiff
		sn, diff = advance(t, s, sn, d)
		if diff.Fallback || len(diff.Added)+len(diff.Removed) != 0 {
			t.Fatalf("delta %v: diff = %+v", d, diff)
		}
		if !sameAnswers(s.Answers(), Answers{{1, 3}}) {
			t.Fatalf("delta %v: answers = %v", d, s.Answers())
		}
	}
	if st := p.IndexStats(); st.IncrFallbacks != 0 {
		t.Fatalf("no-op deltas caused %d fallbacks", st.IncrFallbacks)
	}
}

// A delta confined to a relation the query never reads must not
// invalidate the reduced state: no fallback, no recompute, same
// contribution slices.
func TestIncrUnreadRelationKeepsState(t *testing.T) {
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	db := graphDB([2]int{1, 2}, [2]int{2, 3})
	db.Add("Audit", 1, 1, 1)
	sn := relstr.NewSnapshot(db)
	s, err := p.NewIncrState(context.Background(), sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := s.contribs
	sn, diff := advance(t, s, sn, relstr.NewDelta().Insert("Audit", 2, 2, 2).Delete("Audit", 1, 1, 1))
	if diff.Fallback || len(diff.Added)+len(diff.Removed) != 0 {
		t.Fatalf("unread-relation diff = %+v", diff)
	}
	for ti := range before {
		if len(s.contribs[ti]) != len(before[ti]) {
			t.Fatalf("tree %d contribution changed", ti)
		}
	}
	if s.Version() != sn.Version() {
		t.Fatalf("state version %d should track snapshot %d", s.Version(), sn.Version())
	}
	if st := p.IndexStats(); st.IncrementalEvals != 1 || st.IncrFallbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Self-joins: the same relation read by several nodes seeds each node
// separately.
func TestIncrSelfJoinAndRepeatedVars(t *testing.T) {
	ctx := context.Background()
	for _, src := range []string{
		"Q(x,z) :- E(x,y), E(y,z)",
		"Q(x) :- E(x,x)",
		"Q(x,y) :- E(x,y), E(y,y)",
	} {
		q := cq.MustParse(src)
		p := NewPlan(q)
		sn := relstr.NewSnapshot(graphDB([2]int{0, 1}, [2]int{1, 1}, [2]int{1, 2}))
		s, err := p.NewIncrState(ctx, sn, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*relstr.Delta{
			relstr.NewDelta().Insert("E", 2, 2),
			relstr.NewDelta().Delete("E", 1, 1),
			relstr.NewDelta().Insert("E", 2, 0).Delete("E", 0, 1),
		} {
			next, err := sn.Update(d)
			if err != nil {
				t.Fatal(err)
			}
			wantAdd, wantRem := oracleDiff(t, p, sn, next)
			diff, err := s.Apply(ctx, d, sn, next)
			if err != nil {
				t.Fatal(err)
			}
			if diff.Fallback {
				t.Fatalf("%s: unexpected fallback: %s", src, diff.Reason)
			}
			assertDiff(t, diff, wantAdd, wantRem)
			sn = next
		}
	}
}

// Disconnected queries: each connected component is its own join tree,
// and the answers are the cross product of the trees' contributions. A
// delta on either side, or on both in one Apply, propagates
// incrementally: the touched trees change one after another, each
// change's diff crossed with the other tree's current contribution.
func TestIncrCrossProductTrees(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("Q(x,u) :- E(x,y), F(u,v)")
	p := NewPlan(q)
	if len(p.sched.roots) != 2 {
		t.Fatalf("want one join tree per component, got roots %v", p.sched.roots)
	}
	db := relstr.New()
	db.Add("E", 1, 2)
	db.Add("F", 7, 8)
	sn := relstr.NewSnapshot(db)
	s, err := p.NewIncrState(ctx, sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One tree: incremental.
	next, err := sn.Update(relstr.NewDelta().Insert("E", 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	wantAdd, wantRem := oracleDiff(t, p, sn, next)
	diff, err := s.Apply(ctx, relstr.NewDelta().Insert("E", 3, 4), sn, next)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Fallback {
		t.Fatalf("single-tree delta fell back: %s", diff.Reason)
	}
	assertDiff(t, diff, wantAdd, wantRem)
	sn = next
	// Both trees in one delta: still incremental and exact, including
	// an answer one tree's change adds and the other's removes.
	for _, tc := range []struct {
		d    *relstr.Delta
		want Answers
	}{
		{relstr.NewDelta().Insert("E", 5, 6).Insert("F", 9, 10),
			Answers{{1, 7}, {1, 9}, {3, 7}, {3, 9}, {5, 7}, {5, 9}}},
		{relstr.NewDelta().Insert("E", 11, 12).Delete("F", 7, 8),
			Answers{{1, 9}, {3, 9}, {5, 9}, {11, 9}}},
		{relstr.NewDelta().Delete("E", 1, 2).Delete("E", 3, 4).Delete("E", 5, 6).Insert("F", 13, 14),
			Answers{{11, 9}, {11, 13}}},
	} {
		next, err = sn.Update(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		wantAdd, wantRem = oracleDiff(t, p, sn, next)
		diff, err = s.Apply(ctx, tc.d, sn, next)
		if err != nil {
			t.Fatal(err)
		}
		if diff.Fallback {
			t.Fatalf("two-tree delta fell back: %s", diff.Reason)
		}
		assertDiff(t, diff, wantAdd, wantRem)
		if !sameAnswers(s.Answers(), tc.want) {
			t.Fatalf("answers = %v, want %v", s.Answers(), tc.want)
		}
		sn = next
	}
}

// A delta on one component costs that component: inserting one E row
// into Q(x,w) :- E(x,y), F(w,v) adds one answer per F row, and the
// searches visit the seed alone, not F, so a budget far below |F|
// propagates all of them.
func TestIncrComponentDeltaWithinBudget(t *testing.T) {
	ctx := context.Background()
	p := NewPlan(cq.MustParse("Q(x,w) :- E(x,y), F(w,v)"))
	db := relstr.New()
	db.Add("E", 0, 1)
	for w := range 1000 {
		db.Add("F", w, w)
	}
	sn := relstr.NewSnapshot(db)
	s, err := p.NewIncrState(ctx, sn, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.budget = 64
	d := relstr.NewDelta().Insert("E", 2, 3)
	next, err := sn.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	wantAdd, wantRem := oracleDiff(t, p, sn, next)
	diff, err := s.Apply(ctx, d, sn, next)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Fallback {
		t.Fatalf("one-component delta fell back: %s", diff.Reason)
	}
	if len(wantAdd) != 1000 || len(wantRem) != 0 {
		t.Fatalf("oracle diff +%d -%d, want +1000", len(wantAdd), len(wantRem))
	}
	assertDiff(t, diff, wantAdd, wantRem)
}

// Deletes re-check each candidate with a first-hit membership search
// on the new snapshot: a candidate keeping another witness stays (no
// fallback, nothing removed), one whose last witness died is removed,
// and a variable-disjoint node — a Boolean tree of its own, re-checked
// with nothing bound — keeps every answer while it has a row and
// empties them all when its last tuple goes.
func TestIncrDeleteMembership(t *testing.T) {
	ctx := context.Background()
	chain3 := "Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)"
	disjoint := relstr.New()
	disjoint.Add("E", 1, 2)
	disjoint.Add("E", 3, 4)
	disjoint.Add("F", 7, 8)
	disjoint2 := disjoint.Clone()
	disjoint2.Add("F", 9, 10)
	// G binds no kept variable but F below it binds w: the two delete
	// candidates reach G under the same y and need different verdicts.
	below := relstr.New()
	below.Add("R", 0, 0, 1)
	below.Add("G", 1, 2)
	below.Add("G", 1, 3)
	below.Add("F", 2, 5)
	below.Add("F", 2, 6)
	below.Add("F", 3, 5)
	// R's row binds both children's separators: the second child checked
	// loses its only row.
	twoKids := relstr.New()
	twoKids.Add("R", 1, 2, 3)
	twoKids.Add("F", 2, 4)
	twoKids.Add("G", 3, 5)
	twoKids.Add("G", 6, 7)
	for _, tc := range []struct {
		name    string
		q       string
		db      *relstr.Structure
		d       *relstr.Delta
		removed Answers
	}{
		{"witness survives", chain3,
			graphDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{1, 4}, [2]int{4, 5}),
			relstr.NewDelta().Delete("E", 2, 3), nil},
		{"last witness dies", chain3,
			graphDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{7, 8}, [2]int{8, 9}, [2]int{9, 10}),
			relstr.NewDelta().Delete("E", 2, 3), Answers{{0}}},
		{"kept variable below an unkept node", "Q(x,u,w) :- R(x,u,y), G(y,z), F(z,w)", below,
			relstr.NewDelta().Delete("G", 1, 2), Answers{{0, 0, 6}}},
		{"second child loses its row", "Q(x) :- R(x,y,u), F(y,z), G(u,w)", twoKids,
			relstr.NewDelta().Delete("G", 3, 5), Answers{{1}}},
		{"disjoint node keeps a row", "Q(x) :- E(x,y), F(u,v)", disjoint2,
			relstr.NewDelta().Delete("F", 7, 8), nil},
		{"disjoint node emptied", "Q(x) :- E(x,y), F(u,v)", disjoint,
			relstr.NewDelta().Delete("F", 7, 8), Answers{{1}, {3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlan(cq.MustParse(tc.q))
			sn := relstr.NewSnapshot(tc.db)
			s, err := p.NewIncrState(ctx, sn, 1)
			if err != nil {
				t.Fatal(err)
			}
			next, err := sn.Update(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			wantAdd, wantRem := oracleDiff(t, p, sn, next)
			if !sameAnswers(wantRem, tc.removed) || len(wantAdd) != 0 {
				t.Fatalf("oracle diff +%v -%v, want -%v", wantAdd, wantRem, tc.removed)
			}
			diff, err := s.Apply(ctx, tc.d, sn, next)
			if err != nil {
				t.Fatal(err)
			}
			if diff.Fallback {
				t.Fatalf("unexpected fallback: %s", diff.Reason)
			}
			assertDiff(t, diff, wantAdd, wantRem)
		})
	}
}

// Fallback taxonomy: bag (cyclic) plans, tiny budgets, full
// replacements and stale state all resynchronise with an exact diff. A
// Boolean tree's delta propagates: its unit or empty contribution flows
// through the same candidate and membership searches.
func TestIncrFallbacks(t *testing.T) {
	ctx := context.Background()

	t.Run("boolean tree", func(t *testing.T) {
		p := NewPlan(cq.MustParse("Q() :- E(x,y), E(y,z)"))
		sn := relstr.NewSnapshot(graphDB([2]int{1, 2}, [2]int{2, 3}))
		s, err := p.NewIncrState(ctx, sn, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := relstr.NewDelta().Delete("E", 1, 2)
		next, _ := sn.Update(d)
		wantAdd, wantRem := oracleDiff(t, p, sn, next)
		diff, err := s.Apply(ctx, d, sn, next)
		if err != nil {
			t.Fatal(err)
		}
		if diff.Fallback || len(wantRem) != 1 {
			t.Fatalf("Boolean tree delta should propagate its one removed answer, got %+v (oracle -%v)", diff, wantRem)
		}
		assertDiff(t, diff, wantAdd, wantRem)
	})

	t.Run("naive plan", func(t *testing.T) {
		p := NewPlan(cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)"))
		if p.IncrSupported() {
			t.Fatal("cyclic plan must not claim incremental support")
		}
		sn := relstr.NewSnapshot(cycleDB(3))
		s, err := p.NewIncrState(ctx, sn, 1)
		if err != nil {
			t.Fatal(err)
		}
		d := relstr.NewDelta().Delete("E", 0, 1)
		next, _ := sn.Update(d)
		wantAdd, wantRem := oracleDiff(t, p, sn, next)
		diff, err := s.Apply(ctx, d, sn, next)
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Fallback {
			t.Fatal("bag plan should always fall back")
		}
		assertDiff(t, diff, wantAdd, wantRem)
	})

	t.Run("budget", func(t *testing.T) {
		p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
		sn := relstr.NewSnapshot(graphDB([2]int{0, 1}, [2]int{1, 2}, [2]int{1, 3}))
		s, err := p.NewIncrState(ctx, sn, 1)
		if err != nil {
			t.Fatal(err)
		}
		s.budget = 1
		d := relstr.NewDelta().Insert("E", 3, 4)
		next, _ := sn.Update(d)
		wantAdd, wantRem := oracleDiff(t, p, sn, next)
		diff, err := s.Apply(ctx, d, sn, next)
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Fallback {
			t.Fatal("budget of one row should force a fallback")
		}
		assertDiff(t, diff, wantAdd, wantRem)
	})

	t.Run("budget caps the membership search", func(t *testing.T) {
		// Deleting E(1,2) costs the candidate search two rows (the seed
		// and F(2,3)), but re-checking candidate 1 visits its ten
		// dead-end edges.
		p := NewPlan(cq.MustParse("Q(x) :- E(x,y), F(y,z)"))
		db := relstr.New()
		db.Add("E", 1, 2)
		db.Add("F", 2, 3)
		for y := 10; y < 20; y++ {
			db.Add("E", 1, y)
		}
		sn := relstr.NewSnapshot(db)
		d := relstr.NewDelta().Delete("E", 1, 2)
		next, _ := sn.Update(d)
		wantAdd, wantRem := oracleDiff(t, p, sn, next)
		for _, tc := range []struct {
			budget   int
			fallback bool
		}{{5, true}, {20, false}} {
			s, err := p.NewIncrState(ctx, sn, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.budget = tc.budget
			diff, err := s.Apply(ctx, d, sn, next)
			if err != nil {
				t.Fatal(err)
			}
			if diff.Fallback != tc.fallback {
				t.Fatalf("budget %d: fallback = %v (%s), want %v", tc.budget, diff.Fallback, diff.Reason, tc.fallback)
			}
			assertDiff(t, diff, wantAdd, wantRem)
		}
	})

	t.Run("full replacement and stale state", func(t *testing.T) {
		p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
		sn := relstr.NewSnapshot(graphDB([2]int{0, 1}, [2]int{1, 2}))
		s, err := p.NewIncrState(ctx, sn, 1)
		if err != nil {
			t.Fatal(err)
		}
		// Full replacement: nil delta.
		repl := relstr.NewSnapshot(graphDB([2]int{5, 6}, [2]int{6, 7}))
		diff, err := s.Apply(ctx, nil, nil, repl)
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Fallback {
			t.Fatal("nil delta should resynchronise")
		}
		if !sameAnswers(s.Answers(), Answers{{5, 7}}) {
			t.Fatalf("answers after replacement = %v", s.Answers())
		}
		// Stale state: apply a delta whose old snapshot the state never saw.
		d := relstr.NewDelta().Insert("E", 7, 8)
		mid, _ := repl.Update(relstr.NewDelta().Insert("E", 4, 6))
		next, _ := mid.Update(d)
		diff, err = s.Apply(ctx, d, mid, next)
		if err != nil {
			t.Fatal(err)
		}
		if !diff.Fallback {
			t.Fatal("version mismatch should resynchronise")
		}
		if !sameAnswers(s.Answers(), Answers{{4, 7}, {5, 7}, {6, 8}}) {
			t.Fatalf("answers after resync = %v", s.Answers())
		}
	})
}

// Pooled bag-search runs serve incremental maintenance and cyclic
// evaluations at once: goroutines advancing their own IncrStates of one
// acyclic plan and goroutines evaluating one cyclic plan, all from one
// shared snapshot, stay exact (run under -race in CI's eval job).
func TestIncrConcurrentWithBagSearches(t *testing.T) {
	ctx := context.Background()
	acyclic := NewPlan(cq.MustParse("Q(x0,x3) :- E(x0,x1), E(x1,x2), E(x2,x3)"))
	cyclic := NewPlan(cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)"))
	db := randomDB(rand.New(rand.NewSource(5)), 8, 30)
	db.Declare("Unread", 1)
	base := relstr.NewSnapshot(db)
	wantCyclic, _, err := cyclic.Eval(ctx, base, Read{Par: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 1 {
				for i := 0; i < 20; i++ {
					if got, _, err := cyclic.Eval(ctx, base, Read{Par: 1}); err != nil || !sameAnswers(got, wantCyclic) {
						t.Errorf("goroutine %d: cyclic answers %v (%v), want %v", g, got, err, wantCyclic)
						return
					}
				}
				return
			}
			s, err := acyclic.NewIncrState(ctx, base, 1)
			if err != nil {
				t.Error(err)
				return
			}
			rng, sn := rand.New(rand.NewSource(int64(g))), base
			for i := 0; i < 10; i++ {
				d := randomDelta(rng, 8)
				next, err := sn.Update(d)
				if err == nil {
					_, err = s.Apply(ctx, d, sn, next)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if fresh, _, err := acyclic.Eval(ctx, next, Read{Par: 1}); err != nil || !sameAnswers(s.Answers(), fresh) {
					t.Errorf("goroutine %d step %d: maintained %v, fresh %v (%v)", g, i, s.Answers(), fresh, err)
					return
				}
				sn = next
			}
		}(g)
	}
	wg.Wait()
	if st := acyclic.IndexStats(); st.IncrementalEvals == 0 {
		t.Fatalf("no delta advanced incrementally: %+v", st)
	}
}

// randomDelta draws a small random delta over E (and occasionally
// an unread relation) from rng.
func randomDelta(rng *rand.Rand, n int) *relstr.Delta {
	d := relstr.NewDelta()
	for i := 0; i < 1+rng.Intn(3); i++ {
		switch rng.Intn(4) {
		case 0:
			d.Delete("E", rng.Intn(n), rng.Intn(n))
		case 1:
			d.Insert("Unread", rng.Intn(n))
		default:
			d.Insert("E", rng.Intn(n), rng.Intn(n))
		}
	}
	return d
}

// incrEquivalence drives one (seed, par) scenario: a random acyclic
// query, a random database, and a chain of random deltas, holding
// every diff to the recompute-and-set-difference oracle and the
// maintained answers to a fresh evaluation on both backends.
func incrEquivalence(t *testing.T, seed int64, par int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	q := randomQuery(rng, true)
	db := randomDB(rng, 5, 9)
	db.Declare("Unread", 1)
	p := NewPlan(q)
	sn := relstr.NewSnapshot(db)
	s, err := p.NewIncrState(ctx, sn, par)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		d := randomDelta(rng, 6)
		next, err := sn.Update(d)
		if err != nil {
			t.Fatal(err)
		}
		wantAdd, wantRem := oracleDiff(t, p, sn, next)
		diff, err := s.Apply(ctx, d, sn, next)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(diff.Added, wantAdd) || !sameAnswers(diff.Removed, wantRem) {
			t.Fatalf("seed %d step %d (fallback=%v %q): diff mismatch\n  added   %v want %v\n  removed %v want %v\n  q=%v delta=%v",
				seed, step, diff.Fallback, diff.Reason, diff.Added, wantAdd, diff.Removed, wantRem, q, d)
		}
		// The maintained set equals a fresh evaluation on both backends.
		fresh, _, err := p.Eval(ctx, next, Read{Par: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(s.Answers(), fresh) {
			t.Fatalf("seed %d step %d: maintained %v, fresh %v, q=%v", seed, step, s.Answers(), fresh, q)
		}
		structFresh, _, err := p.Eval(ctx, relstr.Borrow(next.Contents()), Read{Par: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(fresh, structFresh) {
			t.Fatalf("seed %d step %d: backends disagree", seed, step)
		}
		sn = next
	}
}

// FuzzIncrementalEquivalence holds incremental diffs to the
// recompute-and-set-difference oracle across random delta chains,
// backends and worker budgets.
func FuzzIncrementalEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, par := range []int{1, 4} {
			incrEquivalence(t, seed, par)
		}
	})
}

// The quickcheck twin of the fuzz target, so `go test` exercises the
// property without the fuzz engine.
func TestQuickIncrementalEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		incrEquivalence(t, seed, 1)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Budgets from one row up to the default force the fallback path
// through the same random chains, aborting the candidate and
// membership searches at every depth. Every diff stays exact, and
// an aborted incremental attempt leaves the state exactly as it was
// before the fallback re-evaluates.
func TestQuickIncrementalBudgetFallback(t *testing.T) {
	ctx := context.Background()
	aborts, incremental := 0, 0
	f := func(seed int64) bool {
		for _, budget := range []int{1, 2, 8, 32, DefaultIncrBudget} {
			rng := rand.New(rand.NewSource(seed))
			q := randomQuery(rng, true)
			db := randomDB(rng, 5, 9)
			p := NewPlan(q)
			sn := relstr.NewSnapshot(db)
			s, err := p.NewIncrState(ctx, sn, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.budget = budget
			for step := 0; step < 4; step++ {
				d := randomDelta(rng, 6)
				next, err := sn.Update(d)
				if err != nil {
					t.Fatal(err)
				}
				wantAdd, wantRem := oracleDiff(t, p, sn, next)
				answers, version := s.Answers(), s.Version()
				contribs := slices.Clone(s.contribs)
				diff, reason, err := s.advance(ctx, d, sn, next)
				if err != nil {
					t.Fatal(err)
				}
				if reason != "" {
					if reason == "incremental work larger than budget" {
						aborts++
					}
					if !sameAnswers(s.Answers(), answers) || s.Version() != version ||
						!slices.EqualFunc(s.contribs, contribs, func(a, b [][]int) bool { return slices.EqualFunc(a, b, slices.Equal) }) {
						t.Fatalf("seed %d budget %d step %d: aborted attempt (%s) changed the state", seed, budget, step, reason)
					}
					if diff, err = s.Apply(ctx, d, sn, next); err != nil {
						t.Fatal(err)
					}
					if !diff.Fallback {
						t.Fatalf("seed %d budget %d step %d: Apply propagated a delta advance refused (%s)", seed, budget, step, reason)
					}
				} else {
					incremental++
				}
				if !sameAnswers(diff.Added, wantAdd) || !sameAnswers(diff.Removed, wantRem) {
					t.Fatalf("seed %d budget %d step %d (fallback=%v): diff mismatch\n  added   %v want %v\n  removed %v want %v",
						seed, budget, step, diff.Fallback, diff.Added, wantAdd, diff.Removed, wantRem)
				}
				if s.Version() != next.Version() {
					t.Fatalf("seed %d budget %d step %d: version %d, snapshot %d", seed, budget, step, s.Version(), next.Version())
				}
				sn = next
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if aborts == 0 || incremental == 0 {
		t.Fatalf("sweep never exercised both outcomes: %d budget aborts, %d incremental advances", aborts, incremental)
	}
}
