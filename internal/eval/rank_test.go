package eval

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"cqapprox/internal/cq"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/relstr"
)

// rankedOracle is the sort-after-materialize reference: the baseline
// answer set, sorted under the permuted key, truncated at limit.
func rankedOracle(t *testing.T, p *Plan, db *relstr.Structure, spec RankSpec) []relstr.Tuple {
	t.Helper()
	want, err := p.EvalBaseline(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]relstr.Tuple, len(want))
	for i, a := range want {
		out[i] = a.Clone()
	}
	sortAnswersBy(out, spec.perm(len(p.tb.Dist)), spec.Desc)
	if spec.Limit > 0 && len(out) > spec.Limit {
		out = out[:spec.Limit]
	}
	return out
}

// collectRanked drains one ranked stream; tuned runs a connex key over
// a tuned forest (see tunedForest).
func collectRanked(t *testing.T, p *Plan, src *relstr.Snapshot, par int, spec RankSpec, tuned bool) []relstr.Tuple {
	t.Helper()
	var got []relstr.Tuple
	emit := func(tp []int) bool {
		got = append(got, relstr.Tuple(tp).Clone())
		return true
	}
	var prog *rankProgram
	if tuned && p.mode == PlanYannakakis {
		prog = p.rankProgramForSpec(spec)
	}
	var err error
	if prog != nil {
		f := p.tunedForest(src, par)
		err = p.rankOn(context.Background(), f, prog, spec, emit)
		p.flush(f)
	} else {
		_, err = p.streamRanked(context.Background(), src, Read{Par: par, Rank: spec}, emit)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func equalOrdered(a, b []relstr.Tuple) bool {
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

// rankShapes are ranked shapes random queries rarely produce, each
// with a key: a first visit that is not the GYO root (the reduction is
// re-rooted there), two trees plus a headless component (a third tree
// no visit reaches), and a root whose existential column repeats emit
// tuples (the root group deduplicates).
var rankShapes = []struct {
	src   string
	order []int
}{
	{"Q(x0,x1,x2,x3) :- E(x0,x1), E(x1,x2), E(x2,x3)", []int{3, 2, 1, 0}},
	{"Q(x,u) :- E(x,y), F(u,v), G(a,b)", nil},
	{"Q(x) :- E(x,y)", nil},
}

// rankShapeDB adds m random rows over n values to F and G, the
// relations of rankShapes beyond E.
func rankShapeDB(rng *rand.Rand, db *relstr.Structure, n, m int) *relstr.Structure {
	for _, rel := range []string{"F", "G"} {
		db.Declare(rel, 2)
		for range m {
			db.Add(rel, rng.Intn(n), rng.Intn(n))
		}
	}
	return db
}

// FuzzRankedEquivalence asserts the ranked stream — connex pipeline or
// fallback, the classifier decides — is byte-identical to the
// sort-after-materialize oracle, across storage backends (per-call
// structure and snapshot), serial and parallel budgets (with the
// morsel thresholds tuned down so tiny inputs drive the fan-out),
// random key prefixes, both directions, and random limits; cyclic
// seeds additionally cover the bag-plan fallback. A non-zero shape
// picks a query of rankShapes instead of a random one.
func FuzzRankedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(42), uint8(0))
	f.Add(int64(-7), uint8(0))
	f.Add(int64(2026), uint8(0))
	for k := range rankShapes {
		f.Add(int64(k), uint8(k+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		var q *cq.Query
		var db *relstr.Structure
		if k := int(shape) % (len(rankShapes) + 1); k > 0 {
			q = cq.MustParse(rankShapes[k-1].src)
			db = rankShapeDB(rng, randomDB(rng, 5, 9), 5, 6)
		} else {
			q = randomQuery(rng, rng.Intn(4) != 0) // 1-in-4 seeds may be cyclic
			db = randomDB(rng, 5, 9)
		}
		p := NewPlan(q)

		width := len(p.tb.Dist)
		perm := rng.Perm(width)
		spec := RankSpec{
			Order: perm[:rng.Intn(width+1)],
			Desc:  rng.Intn(2) == 1,
			Limit: rng.Intn(6) - 1, // -1/0 unlimited, else top-k
		}
		want := rankedOracle(t, p, db, spec)

		snap := relstr.NewSnapshot(db)
		legs := []struct {
			name  string
			src   *relstr.Snapshot
			par   int
			tuned bool
		}{
			{"struct/serial", relstr.Borrow(db), 1, false},
			{"snapshot/serial", snap, 1, false},
			{"struct/parallel", relstr.Borrow(db), 4, true},
			{"snapshot/parallel", snap, 4, true},
		}
		for _, leg := range legs {
			got := collectRanked(t, p, leg.src, leg.par, spec, leg.tuned)
			if !equalOrdered(got, want) {
				t.Fatalf("%s ranked answers diverge (spec %+v):\n  got  %v\n  want %v\n  q=%v", leg.name, spec, got, want, q)
			}
		}
	})
}

// The rankShapes at their keys, against the oracle: both directions,
// serial and parallel (tuned), and limits of one answer, a few answers
// (the bounded selection: the first visit keeps at least eight rows
// per requested answer), more than all answers, and none. Every call
// takes the connex path. Isolated edges with the smallest and the
// largest values extend to no chain, so a reduction not rooted at the
// first visit would rank them first in one of the directions.
func TestRankedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := randomDB(rng, 12, 60)
	rankShapeDB(rng, db, 12, 60)
	for i := range 4 {
		db.Add("E", -10-i, -20-i)
		db.Add("E", 50+i, 60+i)
	}
	for i, sh := range rankShapes {
		p := NewPlan(cq.MustParse(sh.src))
		prog := p.rankProgramForSpec(RankSpec{Order: sh.order})
		if prog == nil {
			t.Fatalf("%s: no connex program", sh.src)
		}
		if first := prog.bp.steps[0].atom; i == 0 && (p.jt.Parent[first] == -1 || prog.sched == p.sched) {
			t.Fatalf("%s: first visit %d is the join tree's root", sh.src, first)
		}
		all := len(rankedOracle(t, p, db, RankSpec{Order: sh.order}))
		if all < 4 {
			t.Fatalf("%s: only %d answers", sh.src, all)
		}
		for _, desc := range []bool{false, true} {
			for _, limit := range []int{1, 3, all + 5, 0} {
				spec := RankSpec{Order: sh.order, Desc: desc, Limit: limit}
				want := rankedOracle(t, p, db, spec)
				for _, par := range []int{1, 4} {
					if got := collectRanked(t, p, relstr.Borrow(db), par, spec, par > 1); !equalOrdered(got, want) {
						t.Fatalf("%s %+v par %d:\n  got  %v\n  want %v", sh.src, spec, par, got, want)
					}
				}
			}
		}
		if st := p.IndexStats(); st.RankFallbacks != 0 {
			t.Fatalf("%s: %d fallbacks", sh.src, st.RankFallbacks)
		}
	}
}

// Concurrent limited calls of one plan share its canonical program and
// the search state it keeps between calls: each call must see only its
// own (run under -race in CI's eval-race job).
func TestRankedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := randomDB(rng, 20, 120)
	p := NewPlan(cq.MustParse("Q(x,y,z) :- E(x,y), E(y,z)"))
	sn := relstr.NewSnapshot(db)
	var specs []RankSpec
	var wants [][]relstr.Tuple
	for k := range 10 {
		specs = append(specs, RankSpec{Desc: k%2 == 1, Limit: 1 + k/2})
		wants = append(wants, rankedOracle(t, p, db, specs[k]))
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				spec, want := specs[(w+i)%10], wants[(w+i)%10]
				got, _, err := p.Eval(context.Background(), sn, Read{Par: 1, Rank: spec})
				if err != nil {
					t.Error(err)
					return
				}
				if !equalOrdered(got, want) {
					t.Errorf("%+v: got %v, want %v", spec, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The canonical classifier: connex exemplars stream, and the paper's
// canonical non-free-connex query — Q(x,z) :- E(x,y), E(y,z), whose
// existential y connects the two head variables — must fall back.
func TestRankClassification(t *testing.T) {
	cases := []struct {
		src    string
		connex bool
	}{
		{"Q(x) :- E(x,y)", true},
		{"Q() :- E(x,y), E(y,z)", true}, // Boolean: trivially connex
		{"Q(x,y,z) :- E(x,y), E(y,z)", true},
		{"Q(x0,x1,x2,x3) :- E(x0,x1), E(x1,x2), E(x2,x3)", true}, // the top-k benchmark's full chain
		{"Q(x,y) :- E(x,y), E(y,z)", true},
		{"Q(x,x) :- E(x,y)", true},
		{"Q(x,u) :- E(x,y), F(u,v)", true}, // two trees, one root visit each
		{"Q(x,z) :- E(x,y), E(y,z)", false},
		{"Q(x,z) :- E(x,y), F(y,w), G(w,z)", false},
	}
	for _, c := range cases {
		p := NewPlan(cq.MustParse(c.src))
		if p.Mode() != PlanYannakakis {
			t.Fatalf("%s: expected acyclic plan", c.src)
		}
		if got := p.ranked != nil; got != c.connex {
			t.Errorf("%s: canonical classification connex=%v, want %v", c.src, got, c.connex)
		}
		if ex := p.Explain(); (ex.Ranked == "connex") != c.connex {
			t.Errorf("%s: Explain.Ranked = %q", c.src, ex.Ranked)
		}
	}
}

// Early termination, key direction, and the rank counters on the
// three-edge smoke graph (the server smoke test's database).
func TestRankedTopK(t *testing.T) {
	ctx := context.Background()
	db := graphDB([2]int{1, 2}, [2]int{2, 1}, [2]int{2, 2})

	// Connex: full-head path query ordered by (z,y,x).
	p := NewPlan(cq.MustParse("Q(x,y,z) :- E(x,y), E(y,z)"))
	spec := RankSpec{Order: []int{2, 1, 0}, Limit: 3}
	got, _, err := p.Eval(ctx, relstr.Borrow(db), Read{Par: 1, Rank: spec})
	if err != nil {
		t.Fatal(err)
	}
	want := []relstr.Tuple{{1, 2, 1}, {2, 2, 1}, {2, 1, 2}}
	if !equalOrdered(got, want) {
		t.Fatalf("ranked top-3 = %v, want %v", got, want)
	}
	if st := p.IndexStats(); st.RankedEvals != 1 || st.RankFallbacks != 0 {
		t.Fatalf("stats after connex call: %+v", st)
	}

	// Descending is the full reverse of the unlimited ascending order.
	asc, _, err := p.Eval(ctx, relstr.Borrow(db), Read{Rank: RankSpec{Order: []int{2, 1, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	desc, _, err := p.Eval(ctx, relstr.Borrow(db), Read{Rank: RankSpec{Order: []int{2, 1, 0}, Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range asc {
		if !asc[i].Equal(desc[len(desc)-1-i]) {
			t.Fatalf("desc is not the reverse of asc:\n  asc  %v\n  desc %v", asc, desc)
		}
	}

	// Fallback: the projected path query has no connex program for any
	// key; answers still arrive ordered and truncated.
	pf := NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	got, _, err = pf.Eval(ctx, relstr.Borrow(db), Read{Rank: RankSpec{Order: []int{1, 0}, Limit: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want = []relstr.Tuple{{1, 1}, {2, 1}, {1, 2}}
	if !equalOrdered(got, want) {
		t.Fatalf("fallback top-3 = %v, want %v", got, want)
	}
	if st := pf.IndexStats(); st.RankFallbacks != 1 || st.RankedEvals != 0 {
		t.Fatalf("stats after fallback call: %+v", st)
	}
}

// A consumer breaking the ranked stream mid-enumeration leaves no
// error and no further work (the odometer just stops).
func TestRankedStreamBreak(t *testing.T) {
	ctx := context.Background()
	db := graphDB([2]int{1, 2}, [2]int{2, 1}, [2]int{2, 2})
	p := NewPlan(cq.MustParse("Q(x,y,z) :- E(x,y), E(y,z)"))
	seq, errf := p.Stream(ctx, relstr.Borrow(db), Read{Par: 1, Rank: RankSpec{Order: []int{0}}})
	n := 0
	for range seq {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d answers before break", n)
	}
	if err := errf(); err != nil {
		t.Fatalf("terminal error after break: %v", err)
	}
}

// A ranked stream checks its context before every answer on both
// paths, as the plain stream does: a consumer that cancels after the first
// answer gets no second one, and the stream reports the cancellation.
func TestRankedStopsAtCancel(t *testing.T) {
	db := relstr.New()
	for i := range 8 {
		for j := range 8 {
			if i != j {
				db.Add("E", i, j)
			}
		}
	}
	for src, connex := range map[string]bool{
		"Q(x,y,z) :- E(x,y), E(y,z)": true,
		"Q(x,z) :- E(x,y), E(y,z)":   false,
	} {
		p := NewPlan(cq.MustParse(src))
		if (p.ranked != nil) != connex {
			t.Fatalf("%s: connex = %v, want %v", src, p.ranked != nil, connex)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		seq, errf := p.Stream(ctx, relstr.Borrow(db), Read{Par: 1, Rank: RankSpec{Order: []int{0}}})
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

// The bottom-up pass alone suffices only when it is rooted at the
// first visit. In Q(v0) :- E(v1,v0), E(v0,v1) the first visit reads
// v0 from its node's live rows; rooted anywhere else, the pass would
// leave the row (3,4) live there although nothing agrees with it in the
// other node, and the descending top 2 would be [(4) (3)] instead of
// [(3) (2)]. Rooted at the first visit, every live row of its node
// extends to an answer.
func TestRankedNeedsTopDownPass(t *testing.T) {
	db := relstr.New()
	for _, e := range [][2]int{{2, 0}, {1, 1}, {1, 0}, {3, 4}, {2, 3}, {0, 2}, {3, 2}} {
		db.Add("E", e[0], e[1])
	}
	p := NewPlan(cq.MustParse("Q(v0) :- E(v1,v0), E(v0,v1)"))
	if p.ranked == nil {
		t.Fatal("expected a connex plan")
	}
	spec := RankSpec{Desc: true, Limit: 2}
	want := []relstr.Tuple{{3}, {2}}
	if oracle := rankedOracle(t, p, db, spec); !equalOrdered(oracle, want) {
		t.Fatalf("oracle %v, want %v", oracle, want)
	}
	for _, par := range []int{1, 4} {
		if got := collectRanked(t, p, relstr.Borrow(db), par, spec, par > 1); !equalOrdered(got, want) {
			t.Fatalf("parallelism %d: got %v, want %v", par, got, want)
		}
	}
}
