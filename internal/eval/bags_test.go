package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
	"cqapprox/internal/tw"
)

// randomCyclicQuery draws a cyclic query over a binary E and a ternary
// R: repeated variables inside atoms, self-joins, sometimes a second
// variable-disjoint component, and a head of 0–3 body variables
// (repeats allowed).
func randomCyclicQuery(rng *rand.Rand) *cq.Query {
	for {
		q := &cq.Query{Name: "Q"}
		used := map[string]bool{}
		component := func(prefix string, nv, na int) {
			for i := 0; i < na; i++ {
				rel, ar := "E", 2
				if rng.Intn(3) == 0 {
					rel, ar = "R", 3
				}
				a := cq.Atom{Rel: rel}
				for j := 0; j < ar; j++ {
					v := fmt.Sprintf("%s%d", prefix, rng.Intn(nv))
					a.Args = append(a.Args, v)
					used[v] = true
				}
				q.Atoms = append(q.Atoms, a)
			}
		}
		component("x", 3+rng.Intn(4), 3+rng.Intn(4))
		if rng.Intn(3) == 0 {
			component("y", 1+rng.Intn(3), 1+rng.Intn(3))
		}
		var pool []string
		for v := range used {
			pool = append(pool, v)
		}
		slices.Sort(pool)
		for i := rng.Intn(4); i > 0; i-- {
			q.Head = append(q.Head, pool[rng.Intn(len(pool))])
		}
		if NewPlan(q).Mode() == PlanBags {
			return q
		}
	}
}

// randomBagDB fills E and R over a small domain, so joins are dense
// enough for answers and loops (repeated variables) occur.
func randomBagDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	db.Declare("R", 3)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
		db.Add("R", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	return db
}

// checkBagPlan holds every bag-mode verb of q's plan on db, on both
// storage backends, to the naive oracle.
func checkBagPlan(t *testing.T, q *cq.Query, db *relstr.Structure) {
	t.Helper()
	ctx := context.Background()
	p := NewPlan(q)
	if p.Mode() != PlanBags {
		t.Fatalf("%v: mode %v, want bags", q, p.Mode())
	}
	want := Naive(q, db)
	snap := relstr.NewSnapshot(db)
	for _, src := range []struct {
		name string
		s    *relstr.Snapshot
	}{{"struct", relstr.Borrow(db)}, {"snapshot", snap}} {
		got, _, err := p.Eval(ctx, src.s, Read{Par: 1})
		if err != nil || !sameAnswers(got, want) {
			t.Fatalf("%s Eval of %v: got %v (err %v), want %v", src.name, q, got, err, want)
		}
		ok, _, err := p.Bool(ctx, src.s, Read{Par: 1})
		if err != nil || ok != (len(want) > 0) {
			t.Fatalf("%s EvalBool of %v = %v (err %v) with %d answers", src.name, q, ok, err, len(want))
		}
		var streamed []relstr.Tuple
		seq, errf := p.Stream(ctx, src.s, Read{Par: 1})
		for a := range seq {
			streamed = append(streamed, a)
		}
		if err := errf(); err != nil || !sameAnswers(sortAnswers(streamed), want) {
			t.Fatalf("%s Stream of %v: got %v (err %v), want %v", src.name, q, streamed, err, want)
		}
		res, err := p.Count(ctx, src.s, Read{Par: 1})
		if err != nil || res.Count != uint64(len(want)) {
			t.Fatalf("%s Count of %v = %+v (err %v), want %d", src.name, q, res, err, len(want))
		}
	}
}

// FuzzBagEquivalence asserts bag plans answer exactly like the naive
// engine on random cyclic queries: Eval, EvalBool, Stream (as a set)
// and the exact count, against per-call structures and snapshots.
func FuzzBagEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		q := randomCyclicQuery(rng)
		checkBagPlan(t, q, randomBagDB(rng, 2+rng.Intn(5), rng.Intn(14)))
	})
}

func TestBagEquivalenceQuick(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := randomCyclicQuery(rng)
		checkBagPlan(t, q, randomBagDB(rng, 2+rng.Intn(5), rng.Intn(14)))
	}
}

// Hand-picked shapes: Boolean and projecting cycles, a chorded cycle,
// the triangle of ternary atoms, a Boolean component beside a
// projecting one, and a head repeating a variable.
func TestBagShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randomBagDB(rng, 5, 25)
	for _, src := range []string{
		"Q() :- E(x,y), E(y,z), E(z,x)",
		"Q(x) :- E(x,y), E(y,z), E(z,w), E(w,x)",
		"Q(x,z) :- E(x,y), E(y,z), E(z,w), E(w,x), E(x,z)",
		"Q() :- R(a,b,c), R(c,d,e), R(e,f,a)",
		"Q(u) :- E(x,y), E(y,z), E(z,x), E(u,v)",
		"Q(x,x,y) :- E(x,y), E(y,z), E(z,x)",
		"Q(y) :- E(x,x), E(x,y), E(y,z), E(z,x)",
	} {
		checkBagPlan(t, cq.MustParse(src), db)
	}
}

// bagDecompositionValid checks the bag tree of p against the query's
// primal graph: every variable in a bag, every atom inside a bag,
// each variable's bags connected, and the merge rule — every bag
// variable is bound by the separator or by one of the bag's atoms.
func bagDecompositionValid(t *testing.T, q *cq.Query, bp *bagPlan) {
	t.Helper()
	in := func(b int, v int) bool { return slices.Contains(bp.bags[b].vars, v) }
	for i, a := range bp.atoms {
		vs := a.distinctVars()
		found := false
		for b := range bp.bags {
			if !slices.ContainsFunc(vs, func(v int) bool { return !in(b, v) }) {
				found = true
				if !slices.Contains(bp.bags[b].atoms, i) {
					t.Fatalf("%v: bag %d contains atom %d but is not assigned it", q, b, i)
				}
			}
		}
		if !found {
			t.Fatalf("%v: atom %v in no bag", q, a)
		}
	}
	for v := 0; v < bp.numVars; v++ {
		// The bags holding v, and how many of them have a parent that
		// holds v too: a connected subtree has exactly one top.
		holding, tops := 0, 0
		for b := range bp.bags {
			if in(b, v) {
				holding++
				if par := bp.bags[b].parent; par < 0 || !in(par, v) {
					tops++
				}
			}
		}
		if holding > 0 && tops != 1 {
			t.Fatalf("%v: the bags of variable %d are not connected (%d tops)", q, v, tops)
		}
	}
	for b, node := range bp.bags {
		for _, v := range node.vars {
			if slices.Contains(node.sep, v) {
				continue
			}
			if !slices.ContainsFunc(node.atoms, func(a int) bool { return slices.Contains(bp.atoms[a].args, v) }) {
				t.Fatalf("%v: bag %d variable %d bound by neither separator nor atom", q, b, v)
			}
		}
	}
}

// The greedy decomposition is valid, has width 2 on every TW(2) and
// HTW(2) approximation of the query suite, and the bag plan built on
// it satisfies the merge rule.
func TestBagDecomposition(t *testing.T) {
	// The TW(2)/HTW(2) approximations of workload.QuerySuite (as in
	// perfbench/golden.tsv; the grid query's are acyclic).
	approx := []string{
		"Q() :- E(x0,x1), E(x1,x2), E(x2,x0)",
		"Q() :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x0)",
		"Q() :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x0)",
		"Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x0)",
		"Q() :- E(x0,x1), E(x0,x2), E(x1,x2), E(x2,x3), E(x3,x0)",
		"Q() :- E(x0,x1), E(x0,x2), E(x1,x3), E(x2,x4), E(x3,x2), E(x4,x5), E(x5,x0)",
		"Q() :- R(x0,x1,x2), R(x2,x3,x4), R(x4,x5,x0)",
	}
	for _, src := range approx {
		q := cq.MustParse(src)
		tb := q.Tableau()
		g, _ := tw.FromStructure(tb.S)
		var edges [][2]int
		for u := 0; u < g.N; u++ {
			for v := u + 1; v < g.N; v++ {
				if g.HasEdge(u, v) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		d := tw.GreedyDecompose(g.N, edges)
		if !d.Valid(g) {
			t.Fatalf("%s: greedy decomposition invalid: %+v", src, d)
		}
		if d.Width != 2 {
			t.Fatalf("%s: greedy width %d, want 2", src, d.Width)
		}
		p := NewPlan(q)
		if p.Mode() != PlanBags {
			t.Fatalf("%s: mode %v", src, p.Mode())
		}
		bagDecompositionValid(t, q, p.bags)
	}
	// Random cyclic queries: the merge rule and validity hold throughout.
	for seed := int64(0); seed < 200; seed++ {
		q := randomCyclicQuery(rand.New(rand.NewSource(seed)))
		bagDecompositionValid(t, q, NewPlan(q).bags)
	}
	// Greedy decompositions of arbitrary graphs are valid and never
	// beat the exact treewidth.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(9)
		g := tw.NewGraph(n)
		var edges [][2]int
		for k := rng.Intn(2 * n); k > 0; k-- {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			edges = append(edges, e)
			g.AddEdge(e[0], e[1])
		}
		d := tw.GreedyDecompose(n, edges)
		if !d.Valid(g) || d.Width < g.Treewidth() {
			t.Fatalf("graph %v: greedy decomposition %+v (treewidth %d)", edges, d, g.Treewidth())
		}
	}
}

// deadlineAfterPolls is a context whose Err turns into
// context.DeadlineExceeded on its n-th poll and stays there.
type deadlineAfterPolls struct {
	context.Context
	mu   sync.Mutex
	left int
	done chan struct{}
}

func newDeadlineAfterPolls(n int) *deadlineAfterPolls {
	return &deadlineAfterPolls{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *deadlineAfterPolls) Done() <-chan struct{} { return c.done }

func (c *deadlineAfterPolls) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left--; c.left == 0 {
		close(c.done)
	}
	if c.left <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// A seeded atom leads its bag's program: in the triangle's single bag
// every one of the three atoms, seeded, is the first step, although the
// greedy order alone would start with the same atom each time.
func TestBagSeedLeads(t *testing.T) {
	tb := cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)").Tableau()
	for seed := range 3 {
		bp := decompose(tb).compile(nil, seed)
		if len(bp.bags) != 1 || bp.steps[0].atom != seed {
			t.Fatalf("seed %d: %d bags, first step reads atom %d", seed, len(bp.bags), bp.steps[0].atom)
		}
	}
}

// The bag search polls its context: Eval, EvalBool, Stream and the
// exact count of a cyclic plan stop with ErrCanceled soon after the
// context expires mid-search, while a Boolean witness found before the
// expiry still answers true.
func TestBagCancellation(t *testing.T) {
	// A Boolean 5-cycle on a 200-node bipartite-ish graph has no
	// witness, so the search keeps polling until it is stopped.
	db := relstr.New()
	db.Declare("E", 2)
	for i := 0; i < 200; i++ {
		for k := 1; k <= 6; k++ {
			db.Add("E", i, (i+2*k+1)%200)
		}
	}
	empty := NewPlan(cq.MustParse("Q(x) :- E(x,a), E(a,b), E(b,c), E(c,d), E(d,x)"))
	if ok, _, err := empty.Bool(context.Background(), relstr.Borrow(db), Read{}); err != nil || ok {
		t.Fatalf("odd cycle on an even graph: %v, %v", ok, err)
	}
	snap := relstr.NewSnapshot(db)
	verbs := map[string]func(ctx context.Context) error{
		"eval": func(ctx context.Context) error {
			_, _, err := empty.Eval(ctx, snap, Read{Par: 1})
			return err
		},
		"bool": func(ctx context.Context) error {
			_, _, err := empty.Bool(ctx, relstr.Borrow(db), Read{Par: 1})
			return err
		},
		"stream": func(ctx context.Context) error {
			seq, errf := empty.Stream(ctx, snap, Read{Par: 1})
			for range seq {
			}
			return errf()
		},
		"count": func(ctx context.Context) error {
			_, err := empty.Count(ctx, relstr.Borrow(db), Read{Par: 1})
			return err
		},
	}
	for name, run := range verbs {
		ctx := newDeadlineAfterPolls(20)
		start := time.Now()
		err := run(ctx)
		if !errors.Is(err, cqerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want ErrCanceled/DeadlineExceeded, got %v", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: cancellation took %v", name, d)
		}
	}
	// A witness found before the expiry wins over it: the context
	// expires on its second poll, and the triangle's witness is found
	// within the first.
	tri := NewPlan(cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)"))
	ctx := newDeadlineAfterPolls(2)
	ok, _, err := tri.Bool(ctx, relstr.Borrow(cycleDB(3)), Read{})
	if err != nil || !ok {
		t.Fatalf("witness before cancellation: %v, %v", ok, err)
	}
	if ctx.Err() == nil {
		t.Fatal("the context should have expired by now")
	}
}

// A search over a reduced forest reads only its live rows: run on the
// stream's forest under a 10-row budget, rooted at R (atom 0). In the
// first chain R's 1,000 dangling rows die in the bottom-up pass and the
// scan skips them; in the second, 1,000 S rows agree with the live R row
// but have no T partner, and the probe from R skips them. The search
// runs no existence check there, so a dead S row would also be emitted.
// The second plan is rooted at S, and its leaf R has no dangling row,
// so the bottom-up pass alone leaves no dead end for a search from R.
func TestStreamSearchReadsLiveRows(t *testing.T) {
	ctx := context.Background()
	scan := relstr.New()
	for i := range 1000 {
		scan.Add("R", i, 1000+i) // no S partner
	}
	for i := range 3 {
		scan.Add("R", 5000+i, i)
		scan.Add("S", i, 7)
	}
	probe := relstr.New()
	probe.Add("R", 5000, 0)
	for i := range 1000 {
		if i == 500 {
			probe.Add("S", 0, 7)
		}
		probe.Add("S", 0, 1000+i) // no T partner
	}
	probe.Add("T", 7, 8)
	for src, db := range map[string]*relstr.Structure{
		"Q(x,y) :- R(x,y), S(y,z)":           scan,
		"Q(x,y,z) :- R(x,y), S(y,z), T(z,w)": probe,
	} {
		q := cq.MustParse(src)
		p := NewPlan(q)
		f := p.newForest(relstr.Borrow(db), 1)
		if ok, err := p.reduce(ctx, f); !ok || err != nil {
			t.Fatalf("%s reduce: ok %v, err %v", src, ok, err)
		}
		var got []relstr.Tuple
		r := p.forestBags(p.tb.Dist, 0).forestRun(ctx, nil, f, func(vals []int) bool {
			got = append(got, relstr.Tuple(vals).Clone())
			return true
		})
		budget := 10
		r.budget = &budget
		r.run()
		if err := p.finish(r); err != nil {
			t.Fatalf("%s: search over the reduced forest: %v", src, err)
		}
		p.flush(f)
		assertSameAnswers(t, sortAnswers(got), Naive(q, db))
	}
}

// The search of a direct plan visits only the root's live rows: the
// bottom-up pass alone finalises them, and every other bag is an
// existence check a reduced forest skips. Each live root row has six
// matching child rows, twenty dangling root rows have none, and seven
// child rows match no root row; the search must finish within a row
// budget of the ten live root rows, and the child keeps its unmatched
// rows (the bottom-up pass never filters a child by its parent).
func TestDirectSearchReadsRootOnly(t *testing.T) {
	ctx := context.Background()
	db := relstr.New()
	for i := range 10 {
		db.Add("R", i, i%5)
	}
	for i := range 20 {
		db.Add("R", 100+i, 50+i) // no S partner
	}
	for y := range 5 {
		for z := range 6 {
			db.Add("S", y, z)
		}
	}
	for k := range 7 {
		db.Add("S", 1000+k, 0) // no R partner
	}
	q := cq.MustParse("Q(x,y) :- R(x,y), S(y,z)")
	p := NewPlan(q)
	if ex := p.Explain(); ex.Direct != "node 0" || !ex.Trees[0].Nodes[0].Needed || ex.Trees[0].Nodes[1].Needed {
		t.Fatalf("explain %+v: want R direct and alone needed", ex)
	}
	f := p.newForest(relstr.Borrow(db), 1)
	defer p.flush(f)
	if ok, err := p.reduce(ctx, f); !ok || err != nil {
		t.Fatalf("reduce: ok %v, err %v", ok, err)
	}
	if f.nodes[1].live != 37 {
		t.Fatalf("S keeps %d live rows, want all 37: the bottom-up pass filters no child", f.nodes[1].live)
	}
	var got []relstr.Tuple
	r := p.bags.forestRun(ctx, nil, f, func(vals []int) bool {
		got = append(got, relstr.Tuple(vals).Clone())
		return true
	})
	budget := 10
	r.budget = &budget
	r.run()
	if err := p.finish(r); err != nil {
		t.Fatalf("search over the direct root: %v", err)
	}
	assertSameAnswers(t, sortAnswers(got), Naive(q, db))
}

// A stream checks its context before every answer, in both modes: a
// consumer that cancels after the first answer gets no second one,
// although the search polls its context only every 256 rows, and the
// stream reports the cancellation.
func TestStreamStopsAtCancel(t *testing.T) {
	db := relstr.New()
	for i := range 8 {
		for j := range 8 {
			if i != j {
				db.Add("E", i, j)
			}
		}
	}
	for src, mode := range map[string]PlanMode{
		"Q(x,z) :- E(x,y), E(y,z)":         PlanYannakakis,
		"Q(x,y) :- E(x,y), E(y,z), E(z,x)": PlanBags,
	} {
		p := NewPlan(cq.MustParse(src))
		if p.Mode() != mode {
			t.Fatalf("%s: mode %v, want %v", src, p.Mode(), mode)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		seq, errf := p.Stream(ctx, relstr.Borrow(db), Read{Par: 1})
		for range seq {
			n++
			cancel()
		}
		cancel()
		if err := errf(); n != 1 || !errors.Is(err, cqerr.ErrCanceled) {
			t.Fatalf("%s: %d answers after the cancel at the first, err %v", src, n, err)
		}
	}
}
