package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
	"cqapprox/internal/workload"
)

// countForTest is the exact count of Plan.Count with the parallel
// thresholds forced down (see tunedForest): the per-tree product over a
// tuned forest for acyclic plans, the bag search's count for cyclic
// ones.
func (p *Plan) countForTest(ctx context.Context, src *relstr.Snapshot, par int) (uint64, error) {
	if p.mode != PlanYannakakis {
		res, err := p.Count(ctx, src, Read{Par: par})
		if err != nil {
			return 0, err
		}
		return res.Count, nil
	}
	f := p.tunedForest(src, par)
	defer p.flush(f)
	return p.countExact(ctx, src, f)
}

// FuzzCountEquivalence asserts the exact count equals the length of
// the reference evaluation on random acyclic queries and databases,
// across both storage backends and serial/parallel execution, and on
// the same data relabelled outside the dense bound (values shifted by
// 2^40, and negated), where every weighted step takes the index
// fallback. A second leg draws a projecting query (one the estimator
// samples), checks its exact count the same way, and checks every
// sample the estimator draws against the reference sampler step. Later
// legs draw counts that start below the tree root, and variable-disjoint
// components, one tree each.
func FuzzCountEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(1234567))
	f.Fuzz(func(t *testing.T, seed int64) {
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 9)
		p := NewPlan(q)
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		snap := relstr.NewSnapshot(db)
		for _, par := range []int{1, 4} {
			for _, src := range []struct {
				name string
				s    *relstr.Snapshot
			}{{"struct", relstr.Borrow(db)}, {"snapshot", snap}} {
				got, err := p.countForTest(ctx, src.s, par)
				if err != nil {
					t.Fatal(err)
				}
				if got != uint64(len(want)) {
					t.Fatalf("count(%s, par=%d) = %d, want %d (countable=%v)\n  q=%v\n  answers=%v",
						src.name, par, got, len(want), p.csched.exact, q, want)
				}
			}
		}
		// Relabelled past the dense bound and below zero: the index
		// fallback counts the same answers.
		for _, lb := range fallbackLabels {
			msnap := relstr.NewSnapshot(relabel(db, lb.f))
			for _, par := range []int{1, 4} {
				got, err := p.countForTest(ctx, msnap, par)
				if err != nil {
					t.Fatal(err)
				}
				if got != uint64(len(want)) {
					t.Fatalf("count(%s, par=%d) = %d, want %d\n  q=%v", lb.name, par, got, len(want), q)
				}
			}
		}

		pq := randomProjectingQuery(rng)
		pdb := randomProjectingDB(rng)
		pp := NewPlan(pq)
		pwant, err := pp.EvalBaseline(ctx, pdb)
		if err != nil {
			t.Fatal(err)
		}
		psrc := relstr.NewSnapshot(pdb)
		for _, par := range []int{1, 4} {
			got, err := pp.countForTest(ctx, psrc, par)
			if err != nil {
				t.Fatal(err)
			}
			if got != uint64(len(pwant)) {
				t.Fatalf("projecting count(par=%d) = %d, want %d\n  q=%v", par, got, len(pwant), pq)
			}
			if err := samplesMatchRef(ctx, pp, psrc, par, seed, 200); err != nil {
				t.Fatalf("q=%v: %v", pq, err)
			}
		}
		for _, lb := range fallbackLabels {
			msrc := relstr.NewSnapshot(relabel(pdb, lb.f))
			for _, par := range []int{1, 4} {
				got, err := pp.countForTest(ctx, msrc, par)
				if err != nil {
					t.Fatal(err)
				}
				if got != uint64(len(pwant)) {
					t.Fatalf("projecting count(%s, par=%d) = %d, want %d\n  q=%v", lb.name, par, got, len(pwant), pq)
				}
			}
		}
		// The randomCoreQuery leg, drawn after the others so the existing
		// seeds keep their queries: counts that often start below the
		// plan's tree root, on the structure and relabelled snapshots.
		kq := randomCoreQuery(rng)
		cdb := randomCoreDB(rng, 5, 9)
		cp := NewPlan(kq)
		cwant, err := cp.EvalBaseline(ctx, cdb)
		if err != nil {
			t.Fatal(err)
		}
		identity := []struct {
			name string
			f    func(int) int
		}{{"snapshot", func(v int) int { return v }}}
		for _, lb := range append(identity, fallbackLabels...) {
			msrc := relstr.NewSnapshot(relabel(cdb, lb.f))
			for _, par := range []int{1, 4} {
				got, err := cp.countForTest(ctx, msrc, par)
				if err != nil {
					t.Fatal(err)
				}
				if got != uint64(len(cwant)) {
					t.Fatalf("core-leg count(%s, par=%d) = %d, want %d\n  q=%v", lb.name, par, got, len(cwant), kq)
				}
			}
		}
		// The randomDisconnectedQuery leg, drawn last: variable-disjoint
		// components, whose per-tree counts multiply.
		dq := randomDisconnectedQuery(rng)
		ddb := randomCoreDB(rng, 5, 9)
		dp := NewPlan(dq)
		dwant, err := dp.EvalBaseline(ctx, ddb)
		if err != nil {
			t.Fatal(err)
		}
		for _, lb := range append(identity, fallbackLabels...) {
			msrc := relstr.NewSnapshot(relabel(ddb, lb.f))
			for _, par := range []int{1, 4} {
				got, err := dp.countForTest(ctx, msrc, par)
				if err != nil {
					t.Fatal(err)
				}
				if got != uint64(len(dwant)) {
					t.Fatalf("disconnected count(%s, par=%d) = %d, want %d\n  q=%v", lb.name, par, got, len(dwant), dq)
				}
				if err := samplesMatchRef(ctx, dp, msrc, par, seed, 50); err != nil {
					t.Fatalf("q=%v: %v", dq, err)
				}
			}
		}
	})
}

// The quickcheck twin of the fuzz target, run on every plain `go test`.
func TestQuickCountMatchesEval(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Three legs: randomQuery, randomCoreQuery, whose counts often
		// start below the plan's tree root, and randomDisconnectedQuery.
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 9)
		coreQ := randomCoreQuery(rng)
		coreDB := randomCoreDB(rng, 5, 9)
		for _, c := range []struct {
			q  *cq.Query
			db *relstr.Structure
		}{{q, db}, {coreQ, coreDB}, {randomDisconnectedQuery(rng), randomCoreDB(rng, 5, 9)}} {
			p := NewPlan(c.q)
			want, err := p.EvalBaseline(ctx, c.db)
			if err != nil {
				return false
			}
			for _, par := range []int{1, 4} {
				got, err := p.countForTest(ctx, relstr.Borrow(c.db), par)
				if err != nil || got != uint64(len(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Repeated head variables: a head tuple repeats values, but distinct
// answers are still assignments of the distinct variable set — the
// regression surface for multiplicity bugs.
func TestCountRepeatedHeadVars(t *testing.T) {
	ctx := context.Background()
	cases := []string{
		"Q(x,x) :- E(x,y), E(y,x)",
		"Q(x,y,x) :- E(x,y), E(y,z)",
		"Q(x,x,y) :- E(x,y)",
		"Q(x) :- E(x,x)",
		"Q() :- E(x,x), E(x,y)",
	}
	db := graphDB([2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}, [2]int{3, 3}, [2]int{2, 2})
	for _, src := range cases {
		q := cq.MustParse(src)
		p := NewPlan(q)
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.countForTest(ctx, relstr.Borrow(db), 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != uint64(len(want)) {
			t.Fatalf("%s: count = %d, want %d", src, got, len(want))
		}
	}
}

// The prepare-time classification picks the expected mode per query
// shape.
func TestCountClassification(t *testing.T) {
	cases := []struct {
		src      string
		kind     countKind
		sampling bool
	}{
		{"Q() :- E(x,y), E(y,z)", kindUnit, false},
		{"Q(x,y) :- E(x,y), E(y,z)", kindNode, false},
		{"Q(y) :- E(x,y), E(y,z)", kindNode, false},
		{"Q(x,y,z) :- E(x,y), E(y,z)", kindDP, false},
		{"Q(x,z) :- E(x,y), E(y,z)", kindSample, true},
		{"Q(x,w) :- E(x,y), E(y,z), E(z,w)", kindSample, true},
	}
	for _, c := range cases {
		p := NewPlan(cq.MustParse(c.src))
		if p.mode != PlanYannakakis {
			t.Fatalf("%s: expected acyclic plan", c.src)
		}
		if len(p.csched.trees) != 1 {
			t.Fatalf("%s: %d trees, want 1", c.src, len(p.csched.trees))
		}
		if got := p.csched.trees[0].kind; got != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.src, got, c.kind)
		}
		if got := p.Explain().ExactCountable; got == c.sampling {
			t.Errorf("%s: ExactCountable = %v", c.src, got)
		}
	}
	// Naive plans are never exactly countable through the forest.
	if NewPlan(cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")).Explain().ExactCountable {
		t.Error("cyclic plan claims ExactCountable")
	}
}

// Count covers bag plans by counting their search's answers, and
// acyclic plans with a sample tree by counting the search over the
// reduced forest.
func TestCountNaiveFallback(t *testing.T) {
	ctx := context.Background()
	db := graphDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{0, 0})
	for _, c := range []struct{ src, mode string }{
		{"Q(x) :- E(x,y), E(y,z), E(z,x)", ModeExactEnum},
		{"Q(x,z) :- E(x,y), E(y,z)", ModeExactEval},
	} {
		p := NewPlan(cq.MustParse(c.src))
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Count(ctx, relstr.Borrow(db), Read{Par: 1})
		if err != nil || res.Count != uint64(len(want)) || res.Mode != c.mode {
			t.Fatalf("%s: Count = %+v (err %v), want %d by %s", c.src, res, err, len(want), c.mode)
		}
	}
}

// A pruned DP core must not start below its tree root. GYO alone
// roots this tree at Z, and the DP prunes Z (its head variable y lies
// in B): a pass rooted at Z would leave the B and C rows with y = 1 or
// 2 live although no Z row agrees with them, and a DP over them would
// count 12 answers instead of 4. NewPlan roots the tree at C, the top
// of the core, and Z hangs below it as an existence check, which the
// pass reduces into the core. (The name recalls the top-down pass that
// guarded this case before counts rooted their pass at the core.)
func TestCountNeedsTopDownPass(t *testing.T) {
	ctx := context.Background()
	db := relstr.New()
	db.Add("Z", 0)
	for i := range 6 {
		db.Add("B", i, i%3)
		db.Add("C", i%3, i+10)
	}
	p := NewPlan(cq.MustParse("Q(x,y,z) :- Z(y), B(x,y), C(y,z)"))
	if ex := p.Explain(); !ex.ExactCountable || ex.Trees[0].CountKind != "dp" || ex.Trees[0].Nodes[0].Atom != "C(v1,v2)" {
		t.Fatalf("want an exactly countable DP tree rooted at C: %s", ex.Text())
	}
	assertRootsInHeadCore(t, "Z-B-C", p)
	for _, par := range []int{1, 4} {
		if n, err := p.countForTest(ctx, relstr.Borrow(db), par); err != nil || n != 4 {
			t.Fatalf("parallelism %d: count %d (err %v), want 4", par, n, err)
		}
	}
}

// TestQuickCountRootedAtCore holds the counting pass to the plan's
// rooting: every DP or node tree's count starts at its tree root, the
// top of its pruned core, and the exact count must equal the reference
// evaluation's, serially and in parallel with tuned thresholds. A
// hand-built plan first pins a single-node core away from an
// existential leaf: R–C–{L1, L2–M}, where R(a) misses the head
// variable x and prunes into C, which holds it; a pass rooted at R
// would leave C's rows with no R partner live and count the x they
// carry, so R must hang below the core as an existence check. The
// random legs count how often the rooting moved a tree off GYO's root.
func TestQuickCountRootedAtCore(t *testing.T) {
	ctx := context.Background()
	check := func(name string, p *Plan, db *relstr.Structure) (moved int) {
		t.Helper()
		assertRootsInHeadCore(t, name, p)
		jt, _ := hypergraph.New(len(p.tb.Var), p.vars...).GYO(p.tb.Dist)
		for _, tree := range p.csched.trees {
			if (tree.kind == kindDP || tree.kind == kindNode) && jt.Parent[tree.root] != -1 {
				moved++
			}
		}
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			if n, err := p.countForTest(ctx, relstr.Borrow(db), par); err != nil || n != uint64(len(want)) {
				t.Fatalf("%s: parallelism %d: count %d (err %v), want %d", name, par, n, err, len(want))
			}
		}
		return moved
	}

	q := cq.MustParse("Q(x) :- R(a), C(a,x,b,c), L1(x,b), L2(x,c,d), M(c,d)")
	db := relstr.New()
	db.Add("R", 1)
	db.Add("M", 0, 0)
	for k, a := range []int{1, 2, 1} {
		x := 10 * (k + 1)
		db.Add("C", a, x, 0, 0)
		db.Add("L1", x, 0)
		db.Add("L2", x, 0, 0)
	}
	p := NewPlan(q)
	r := slices.IndexFunc(p.atoms, func(a patom) bool { return a.rel == "R" })
	tree := &p.csched.trees[0]
	if len(p.csched.trees) != 1 || tree.kind != kindNode || slices.Contains(tree.core, r) || tree.bags != p.bags {
		t.Fatalf("want one node tree searched by the plan's program, R outside its core: %s", p.Explain().Text())
	}
	check("head-rooted", p, db)

	rng := rand.New(rand.NewSource(11))
	moved := 0
	for range 3000 {
		q := randomQuery(rng, true)
		moved += check(q.String(), NewPlan(q), randomDB(rng, 5, 9))
	}
	t.Logf("%d random cores moved off GYO's root", moved)

	// The randomCoreQuery leg must move the root under at least 10 % of
	// its plans: randomQuery's small trees rarely prune their root.
	plans, below := 3000, 0
	for range plans {
		q := randomCoreQuery(rng)
		m := check(q.String(), NewPlan(q), randomCoreDB(rng, 5, 9))
		if moved += m; m > 0 {
			below++
		}
	}
	if moved == 0 {
		t.Fatal("no random DP or node core moved off GYO's root")
	}
	if below*10 < plans {
		t.Fatalf("%d of %d randomCoreQuery plans moved a count root off GYO's root, want at least 10 %%", below, plans)
	}
	t.Logf("%d of %d randomCoreQuery plans moved a count root off GYO's root", below, plans)
}

// The sampler's normalising constant is the tree's full-join size and
// the per-sample estimates N/m average out to the true distinct count
// (fixed seed; the sample mean over a few thousand draws must land
// well within 10%).
func TestCountSamplerConverges(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("Q(x,z) :- E(x,y), E(y,z)")
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 12, 60)
	p := NewPlan(q)
	if p.csched.exact {
		t.Fatal("expected a sampling plan")
	}
	want, err := p.EvalBaseline(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test database")
	}
	if len(p.csched.trees) != 1 || p.csched.trees[0].kind != kindSample {
		t.Fatal("expected one sampling tree")
	}
	f := p.newForest(relstr.Borrow(db), 1)
	defer p.flush(f)
	if err := f.runDown(ctx, p.csched.est); err != nil {
		t.Fatal(err)
	}
	sampler, err := f.sampler(&p.csched.trees[0], p.csched.est)
	if err != nil {
		t.Fatal(err)
	}
	total := sampler.total
	// N is the number of (x,y,z) assignments: count them naively.
	full := NewPlan(cq.MustParse("Q(x,y,z) :- E(x,y), E(y,z)"))
	fullAns, err := full.EvalBaseline(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if total != float64(len(fullAns)) {
		t.Fatalf("sampler total = %v, want %d", total, len(fullAns))
	}
	srng := rand.New(rand.NewSource(99))
	sum := 0.0
	const draws = 4000
	for i := 0; i < draws; i++ {
		x, err := sampler.sample(srng)
		if err != nil {
			t.Fatal(err)
		}
		sum += x
	}
	mean := sum / draws
	if rel := math.Abs(mean-float64(len(want))) / float64(len(want)); rel > 0.1 {
		t.Fatalf("sample mean %v vs true count %d (rel err %.3f)", mean, len(want), rel)
	}
}

// Checked arithmetic saturates into errors, not silent wraparound.
func TestCountCheckedArithmetic(t *testing.T) {
	if _, ok := addU64(math.MaxUint64, 1); ok {
		t.Error("addU64 missed overflow")
	}
	if s, ok := addU64(math.MaxUint64-1, 1); !ok || s != math.MaxUint64 {
		t.Errorf("addU64 = %d, %v", s, ok)
	}
	if _, ok := mulU64(1<<33, 1<<31); ok {
		t.Error("mulU64 missed overflow")
	}
	if m, ok := mulU64(1<<32, 1<<31); !ok || m != 1<<63 {
		t.Errorf("mulU64 = %d, %v", m, ok)
	}
}

// An empty relation zeroes the count through every classification.
func TestCountEmpty(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("Q(x,u) :- E(x,y), F(u,v)")
	db := relstr.New()
	db.Declare("E", 2)
	db.Declare("F", 2)
	db.Add("E", 1, 2)
	p := NewPlan(q)
	got, err := p.countForTest(ctx, relstr.Borrow(db), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("count on empty F = %d", got)
	}
}

func pathDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
	}
	return db
}

func naiveCount(p *Plan, db *relstr.Structure) uint64 {
	return uint64(len(Naive(p.Query(), db)))
}

// Count picks the right mode per plan shape and always matches the
// reference evaluation.
func TestExactModes(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	db := pathDB(rng, 8, 30)
	cases := []struct {
		src  string
		mode string
	}{
		{"Q(x,y,z) :- E(x,y), E(y,z)", ModeExactDP},
		{"Q(x,y) :- E(x,y), E(y,z)", ModeExactDP},
		{"Q() :- E(x,y)", ModeExactDP},
		{"Q(x,z) :- E(x,y), E(y,z)", ModeExactEval},
		{"Q(x) :- E(x,y), E(y,z), E(z,x)", ModeExactEnum},
	}
	for _, c := range cases {
		p := NewPlan(cq.MustParse(c.src))
		res, err := p.Count(ctx, relstr.Borrow(db), Read{Par: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != c.mode {
			t.Errorf("%s: mode = %s, want %s", c.src, res.Mode, c.mode)
		}
		if res.Estimated {
			t.Errorf("%s: exact result marked estimated", c.src)
		}
		if want := naiveCount(p, db); res.Count != want {
			t.Errorf("%s: count = %d, want %d", c.src, res.Count, want)
		}
	}
}

// Count equals the reference on random inputs across both backends.
func TestQuickExact(t *testing.T) {
	ctx := context.Background()
	queries := []string{
		"Q(x,y,z) :- E(x,y), E(y,z)",
		"Q(x,y) :- E(x,y), E(y,z)",
		"Q(x,z) :- E(x,y), E(y,z)",
		"Q(x,x) :- E(x,y), E(y,x)",
		"Q(y) :- E(x,y)",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := pathDB(rng, 6, 18)
		snap := relstr.NewSnapshot(db)
		for _, src := range queries {
			p := NewPlan(cq.MustParse(src))
			want := naiveCount(p, db)
			for _, s := range []*relstr.Snapshot{relstr.Borrow(db), snap} {
				res, err := p.Count(ctx, s, Read{Par: 2})
				if err != nil || res.Count != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Fixed-seed estimates land within the requested ε of the true count
// on a sampling-classified query, and are deterministic per seed.
func TestEstimateWithinEpsilon(t *testing.T) {
	ctx := context.Background()
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	rng := rand.New(rand.NewSource(11))
	db := pathDB(rng, 15, 120)
	want := naiveCount(p, db)
	if want == 0 {
		t.Fatal("degenerate database")
	}
	const eps = 0.1
	for seed := int64(1); seed <= 5; seed++ {
		res, err := p.Count(ctx, relstr.Borrow(db), Read{Estimate: true, Count: CountOptions{Epsilon: eps, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Estimated || res.Mode != ModeEstimate {
			t.Fatalf("seed %d: mode = %s, estimated = %v", seed, res.Mode, res.Estimated)
		}
		if res.Samples == 0 || res.Batches == 0 {
			t.Fatalf("seed %d: no sampling effort recorded", seed)
		}
		if rel := math.Abs(res.Estimate-float64(want)) / float64(want); rel > eps {
			t.Errorf("seed %d: estimate %v vs true %d, rel err %.4f > ε=%v",
				seed, res.Estimate, want, rel, eps)
		}
		again, err := p.Count(ctx, relstr.Borrow(db), Read{Estimate: true, Count: CountOptions{Epsilon: eps, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		if again.Estimate != res.Estimate || again.Samples != res.Samples {
			t.Errorf("seed %d: estimate not deterministic (%v/%d vs %v/%d)",
				seed, res.Estimate, res.Samples, again.Estimate, again.Samples)
		}
	}
}

// An estimated Count degrades to the exact paths when sampling has nothing
// to do.
func TestEstimateExactShortcuts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	db := pathDB(rng, 8, 30)
	for _, src := range []string{
		"Q(x,y,z) :- E(x,y), E(y,z)",     // fully countable
		"Q(x) :- E(x,y), E(y,z), E(z,x)", // bag plan
	} {
		p := NewPlan(cq.MustParse(src))
		res, err := p.Count(ctx, relstr.Borrow(db), Read{Par: 1, Estimate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimated {
			t.Errorf("%s: estimate sampled where exact is free", src)
		}
		if want := naiveCount(p, db); res.Count != want {
			t.Errorf("%s: count = %d, want %d", src, res.Count, want)
		}
	}
	// Empty answer set on a sampling plan: exact zero without sampling.
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), F(y,z)"))
	empty := relstr.New()
	empty.Declare("E", 2)
	empty.Declare("F", 2)
	empty.Add("E", 1, 2)
	res, err := p.Count(ctx, relstr.Borrow(empty), Read{Par: 1, Estimate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimated || res.Count != 0 {
		t.Fatalf("empty db: count = %d, estimated = %v", res.Count, res.Estimated)
	}
}

// Counting calls feed the plan's statistics: exact vs estimated, with
// batch totals.
func TestCountStats(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	db := pathDB(rng, 10, 50)
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	if _, err := p.Count(ctx, relstr.Borrow(db), Read{Par: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := p.Count(ctx, relstr.Borrow(db), Read{Par: 1, Estimate: true})
	if err != nil {
		t.Fatal(err)
	}
	st := p.IndexStats()
	if st.ExactCounts != 1 {
		t.Errorf("ExactCounts = %d, want 1", st.ExactCounts)
	}
	if st.EstimatedCounts != 1 {
		t.Errorf("EstimatedCounts = %d, want 1", st.EstimatedCounts)
	}
	if st.SampleBatches != uint64(res.Batches) || st.SampleBatches == 0 {
		t.Errorf("SampleBatches = %d, want %d", st.SampleBatches, res.Batches)
	}
}

// Option defaulting.
func TestOptionsDefaults(t *testing.T) {
	o := CountOptions{}.withDefaults()
	if o.Epsilon != DefaultEpsilon || o.Delta != DefaultDelta ||
		o.Seed != DefaultSeed || o.MaxSamples != DefaultMaxSamples {
		t.Fatalf("defaults = %+v", o)
	}
	o = CountOptions{Epsilon: 0.2, Delta: 0.01, Seed: 9, MaxSamples: 10}.withDefaults()
	if o.Epsilon != 0.2 || o.Delta != 0.01 || o.Seed != 9 || o.MaxSamples != 10 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

// An estimated Count returns the same Estimate, Samples and Batches with
// the production sampler as with the reference O(forest) step, for
// every seed, on random projecting queries.
func TestQuickEstimateMatchesReference(t *testing.T) {
	ctx := context.Background()
	estimate := func(p *Plan, src *relstr.Snapshot, seed int64) *CountResult {
		res, err := p.Count(ctx, src, Read{Estimate: true, Count: CountOptions{Epsilon: 0.25, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	defer func() { treeSample = (*treeSampler).sample }()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomProjectingQuery(rng)
		p := NewPlan(q)
		src := relstr.Borrow(randomProjectingDB(rng))
		for s := int64(1); s <= 3; s++ {
			treeSample = (*treeSampler).sample
			got := estimate(p, src, seed+s)
			treeSample = refSample
			want := estimate(p, src, seed+s)
			if math.Float64bits(got.Estimate) != math.Float64bits(want.Estimate) ||
				got.Samples != want.Samples || got.Batches != want.Batches || got.Mode != want.Mode {
				t.Logf("q=%v seed %d: got %+v, reference %+v", q, seed+s, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// An estimate stops at a cancellation within one sample: the stub
// sampler cancels the context on its first draw and returns the same
// value every time, so a sampler that polled only between batches would
// finish its pilot round with zero variance and return an estimate.
func TestEstimateStopsAtCancel(t *testing.T) {
	p := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	db := pathDB(rand.New(rand.NewSource(11)), 15, 120)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer func() { treeSample = (*treeSampler).sample }()
	draws := 0
	treeSample = func(*treeSampler, *rand.Rand) (float64, error) {
		draws++
		cancel()
		return 1, nil
	}
	res, err := p.Count(ctx, relstr.Borrow(db), Read{Estimate: true})
	if !errors.Is(err, cqerr.ErrCanceled) {
		t.Fatalf("estimate after a cancellation: %+v, err %v; want ErrCanceled", res, err)
	}
	if draws != 1 {
		t.Fatalf("%d samples drawn, want the one that cancelled", draws)
	}
}

// A node tree counts its node's live rows when the head covers the
// node (the first query), and otherwise through the plan's search,
// whose seen set the pooled run keeps across calls (the second): the
// allocations of an exact count do not grow with the number of answers
// (2,284 → 23,328 for the first query, 291 → 2,922 for the second, from
// N = 300 to N = 3000).
func TestNodeCountAllocsFlat(t *testing.T) {
	ctx := context.Background()
	for _, src := range []string{"Q(x,y) :- E(x,y), E(y,z)", "Q(x0) :- E(x0,x1), E(x1,x0)"} {
		p := NewPlan(cq.MustParse(src))
		if kind := p.csched.trees[0].kind; kind != kindNode {
			t.Fatalf("%s: kind %v, want node", src, kind)
		}
		var allocs [2]float64
		for k, n := range []int{300, 3000} {
			sn := relstr.NewSnapshot(workload.EvalBenchDB(n))
			want, _, err := p.Eval(ctx, sn, Read{Par: 1})
			if err != nil {
				t.Fatal(err)
			}
			allocs[k] = testing.AllocsPerRun(20, func() {
				if res, err := p.Count(ctx, sn, Read{Par: 1}); err != nil || res.Count != uint64(len(want)) {
					t.Fatalf("%s N=%d: Count = %+v (err %v), want %d", src, n, res, err, len(want))
				}
			})
		}
		// Pooled search state makes the count wobble (the race detector
		// drops pooled items at random); a tuple per answer would
		// multiply it tenfold.
		if allocs[1] > 2*allocs[0] {
			t.Errorf("%s: %v allocs per count at N=300, %v at N=3000", src, allocs[0], allocs[1])
		}
	}
}

// Each connected component is its own tree, and the count is the
// product of the trees' counts: Q(x,y,w,v) :- E(x,y), F(w,v) counts
// |E|·|F| over two trees, and the projecting Q(x,w) :- E(x,y), F(w,v)
// the distinct x times the distinct w, both without enumerating
// (mode exact-dp), serially and in parallel.
func TestCountComponentProduct(t *testing.T) {
	ctx := context.Background()
	db := relstr.New()
	for i := range 7 {
		db.Add("E", i, i+1)
	}
	for i := range 5 {
		db.Add("F", i, 2*i)
	}
	for _, src := range []string{"Q(x,y,w,v) :- E(x,y), F(w,v)", "Q(x,w) :- E(x,y), F(w,v)"} {
		p := NewPlan(cq.MustParse(src))
		if len(p.csched.trees) != 2 || !p.csched.exact {
			t.Fatalf("%s: want two exact trees: %s", src, p.Explain().Text())
		}
		for _, par := range []int{1, 4} {
			res, err := p.Count(ctx, relstr.Borrow(db), Read{Par: par})
			if err != nil || res.Count != 35 || res.Mode != ModeExactDP {
				t.Fatalf("%s par=%d: Count = %+v (err %v), want 35 by %s", src, par, res, err, ModeExactDP)
			}
		}
	}
}

// A sample tree's weights are exact uint64s, so a tree with 2^64 or
// more full assignments makes an estimated Count fail with
// ErrCountOverflow, as an exact dp count would. GYO hangs k existential
// leaves A_i(h,y_i) in a chain below Y(x,h) and Z(h,z), and each leaf
// multiplies the assignments of the 16 answers by 16: with k = 15 the
// weights fit and their sum, 2^64, does not; with k = 16 the Y row's own
// weight overflows. Count still returns the exact 16 through the
// search, which weighs nothing.
func TestEstimateSampleTreeOverflow(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{15, 16} {
		src := "Q(x,z) :- Y(x,h), Z(h,z)"
		db := relstr.New()
		db.Add("Y", 17, 0)
		for i := 1; i <= 16; i++ {
			db.Add("Z", 0, i)
		}
		for i := range k {
			src += fmt.Sprintf(", A%02d(h,y%d)", i, i)
			for j := range 16 {
				db.Add(fmt.Sprintf("A%02d", i), 0, j)
			}
		}
		p := NewPlan(cq.MustParse(src))
		if len(p.csched.trees) != 1 || p.csched.trees[0].kind != kindSample {
			t.Fatalf("k=%d: want one sample tree: %s", k, p.Explain().Text())
		}
		for _, par := range []int{1, 4} {
			if _, err := p.Count(ctx, relstr.Borrow(db), Read{Par: par, Estimate: true}); !errors.Is(err, ErrCountOverflow) {
				t.Fatalf("k=%d par=%d: estimated Count err = %v, want ErrCountOverflow", k, par, err)
			}
			res, err := p.Count(ctx, relstr.Borrow(db), Read{Par: par})
			if err != nil || res.Count != 16 || res.Mode != ModeExactEval {
				t.Fatalf("k=%d par=%d: Count = %+v (err %v), want 16 by %s", k, par, res, err, ModeExactEval)
			}
		}
	}
}
