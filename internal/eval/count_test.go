package eval

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// countForTest is the exact count through the counting subsystem with
// the parallel thresholds forced down (see evalTuned): the DP/dedup
// product for exactly countable plans, CountEval (the production
// "exact-eval" path) for acyclic plans with a sampling tree,
// the bag search for cyclic plans.
func (p *Plan) countForTest(ctx context.Context, src *relstr.Snapshot, par int) (uint64, error) {
	if p.mode != PlanYannakakis {
		return p.CountEnum(ctx, src)
	}
	run, err := p.prepareCount(ctx, src, par, true, false)
	if err != nil {
		return 0, err
	}
	defer run.Close()
	if !p.ExactCountable() {
		return run.CountEval(ctx)
	}
	if run.Empty() {
		return 0, nil
	}
	total := uint64(1)
	for t := 0; t < run.Trees(); t++ {
		n, ok, err := run.TreeExact(ctx, t)
		if err != nil {
			return 0, err
		}
		if !ok {
			panic("countForTest: sampling tree on an ExactCountable plan")
		}
		var mulOK bool
		if total, mulOK = mulU64(total, n); !mulOK {
			return 0, ErrCountOverflow
		}
	}
	return total, nil
}

// FuzzCountEquivalence asserts the exact count equals the length of
// the reference evaluation on random acyclic queries and databases,
// across both storage backends and serial/parallel execution, and on
// the same data relabelled outside the dense bound (values shifted by
// 2^40, and negated), where every DP edge takes the index fallback. A second
// leg draws a projecting query (one the estimator samples), checks its
// exact count the same way, and checks every TreeSample value against
// the reference sampler step.
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
						src.name, par, got, len(want), p.ExactCountable(), q, want)
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
	})
}

// The quickcheck twin of the fuzz target, run on every plain `go test`.
func TestQuickCountMatchesEval(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 9)
		p := NewPlan(q)
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			return false
		}
		for _, par := range []int{1, 4} {
			got, err := p.countForTest(ctx, relstr.Borrow(db), par)
			if err != nil || got != uint64(len(want)) {
				return false
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
		{"Q() :- E(x,y), E(y,z)", countUnit, false},
		{"Q(x,y) :- E(x,y), E(y,z)", countNode, false},
		{"Q(y) :- E(x,y), E(y,z)", countNode, false},
		{"Q(x,y,z) :- E(x,y), E(y,z)", countDP, false},
		{"Q(x,z) :- E(x,y), E(y,z)", countSample, true},
		{"Q(x,w) :- E(x,y), E(y,z), E(z,w)", countSample, true},
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
		if got := p.ExactCountable(); got == c.sampling {
			t.Errorf("%s: ExactCountable = %v", c.src, got)
		}
	}
	// Naive plans are never exactly countable through the forest.
	if NewPlan(cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")).ExactCountable() {
		t.Error("cyclic plan claims ExactCountable")
	}
}

// PrepareCount refuses bag plans; CountEnum covers them, and refuses
// acyclic plans in turn.
func TestCountNaiveFallback(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	db := graphDB([2]int{0, 1}, [2]int{1, 2}, [2]int{2, 0}, [2]int{0, 0})
	p := NewPlan(q)
	if _, err := p.PrepareCount(ctx, relstr.Borrow(db), 1, false); err != ErrNotAcyclic {
		t.Fatalf("PrepareCount on bag plan: err = %v, want ErrNotAcyclic", err)
	}
	want, err := p.EvalBaseline(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.CountEnum(ctx, relstr.Borrow(db))
	if err != nil {
		t.Fatal(err)
	}
	if got != uint64(len(want)) {
		t.Fatalf("CountEnum = %d, want %d", got, len(want))
	}
	acyclic := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	if _, err := acyclic.CountEnum(ctx, relstr.Borrow(db)); err != errAcyclicPlan {
		t.Fatalf("CountEnum on acyclic plan: err = %v, want errAcyclicPlan", err)
	}
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
	if p.ExactCountable() {
		t.Fatal("expected a sampling plan")
	}
	want, err := p.EvalBaseline(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test database")
	}
	run, err := p.PrepareCount(ctx, relstr.Borrow(db), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.Trees() != 1 || run.TreeExactOK(0) {
		t.Fatal("expected one sampling tree")
	}
	total, err := run.TreeTotal(0)
	if err != nil {
		t.Fatal(err)
	}
	// N is the number of (x,y,z) assignments: count them naively.
	full := NewPlan(cq.MustParse("Q(x,y,z) :- E(x,y), E(y,z)"))
	fullAns, err := full.EvalBaseline(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if total != float64(len(fullAns)) {
		t.Fatalf("TreeTotal = %v, want %d", total, len(fullAns))
	}
	srng := rand.New(rand.NewSource(99))
	sum := 0.0
	const draws = 4000
	for i := 0; i < draws; i++ {
		x, err := run.TreeSample(0, srng)
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
