package eval

import (
	"context"
	"math/rand"
	"testing"

	"cqapprox/internal/cq"
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

// collectRanked drains one ranked stream.
func collectRanked(t *testing.T, p *Plan, src *relstr.Snapshot, par int, spec RankSpec, tuned bool) []relstr.Tuple {
	t.Helper()
	var got []relstr.Tuple
	err := p.streamRanked(context.Background(), src, par, spec, tuned, func(tp relstr.Tuple) bool {
		got = append(got, tp)
		return true
	})
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

// FuzzRankedEquivalence asserts the ranked stream — connex pipeline or
// fallback, the classifier decides — is byte-identical to the
// sort-after-materialize oracle, across storage backends (per-call
// structure and snapshot), serial and parallel budgets (with the
// morsel thresholds tuned down so tiny inputs drive the fan-out),
// random key prefixes, both directions, and random limits; cyclic
// seeds additionally cover the bag-plan fallback.
func FuzzRankedEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(2026))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, rng.Intn(4) != 0) // 1-in-4 seeds may be cyclic
		db := randomDB(rng, 5, 9)
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
	got, err := p.EvalRankedOn(ctx, relstr.Borrow(db), 1, spec)
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
	asc, err := p.EvalRankedOn(ctx, relstr.Borrow(db), 1, RankSpec{Order: []int{2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	desc, err := p.EvalRankedOn(ctx, relstr.Borrow(db), 1, RankSpec{Order: []int{2, 1, 0}, Desc: true})
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
	got, err = pf.EvalRankedOn(ctx, relstr.Borrow(db), 1, RankSpec{Order: []int{1, 0}, Limit: 3})
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
	seq, errf := p.StreamRankedOn(ctx, relstr.Borrow(db), 1, RankSpec{})
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
