package count

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/eval"
	"cqapprox/internal/relstr"
)

func pathDB(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
	}
	return db
}

func oracle(p *eval.Plan, db *relstr.Structure) uint64 {
	return uint64(len(eval.Naive(p.Query(), db)))
}

// Exact picks the right mode per plan shape and always matches the
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
		p := eval.NewPlan(cq.MustParse(c.src))
		res, err := Exact(ctx, p, eval.NewSource(db), 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != c.mode {
			t.Errorf("%s: mode = %s, want %s", c.src, res.Mode, c.mode)
		}
		if res.Estimated {
			t.Errorf("%s: exact result marked estimated", c.src)
		}
		if want := oracle(p, db); res.Count != want {
			t.Errorf("%s: count = %d, want %d", c.src, res.Count, want)
		}
	}
}

// Exact equals the reference on random inputs across both backends.
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
			p := eval.NewPlan(cq.MustParse(src))
			want := uint64(len(mustEval(p, db)))
			for _, s := range []eval.Source{eval.NewSource(db), eval.NewSnapshotSource(snap)} {
				res, err := Exact(ctx, p, s, 2)
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

func mustEval(p *eval.Plan, db *relstr.Structure) eval.Answers {
	return eval.Naive(p.Query(), db)
}

// Fixed-seed estimates land within the requested ε of the true count
// on a sampling-classified query, and are deterministic per seed.
func TestEstimateWithinEpsilon(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("Q(x,z) :- E(x,y), E(y,z)")
	p := eval.NewPlan(q)
	rng := rand.New(rand.NewSource(11))
	db := pathDB(rng, 15, 120)
	want := oracle(p, db)
	if want == 0 {
		t.Fatal("degenerate database")
	}
	const eps = 0.1
	for seed := int64(1); seed <= 5; seed++ {
		res, err := Estimate(ctx, p, eval.NewSource(db), 1, Options{Epsilon: eps, Seed: seed})
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
		again, err := Estimate(ctx, p, eval.NewSource(db), 1, Options{Epsilon: eps, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if again.Estimate != res.Estimate || again.Samples != res.Samples {
			t.Errorf("seed %d: estimate not deterministic (%v/%d vs %v/%d)",
				seed, res.Estimate, res.Samples, again.Estimate, again.Samples)
		}
	}
}

// Estimate degrades to the exact paths when sampling has nothing to do.
func TestEstimateExactShortcuts(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	db := pathDB(rng, 8, 30)
	for _, src := range []string{
		"Q(x,y,z) :- E(x,y), E(y,z)",     // fully countable
		"Q(x) :- E(x,y), E(y,z), E(z,x)", // naive plan
	} {
		p := eval.NewPlan(cq.MustParse(src))
		res, err := Estimate(ctx, p, eval.NewSource(db), 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Estimated {
			t.Errorf("%s: estimate sampled where exact is free", src)
		}
		if want := oracle(p, db); res.Count != want {
			t.Errorf("%s: count = %d, want %d", src, res.Count, want)
		}
	}
	// Empty answer set on a sampling plan: exact zero without sampling.
	p := eval.NewPlan(cq.MustParse("Q(x,z) :- E(x,y), F(y,z)"))
	empty := relstr.New()
	empty.Declare("E", 2)
	empty.Declare("F", 2)
	empty.Add("E", 1, 2)
	res, err := Estimate(ctx, p, eval.NewSource(empty), 1, Options{})
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
	p := eval.NewPlan(cq.MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	if _, err := Exact(ctx, p, eval.NewSource(db), 1); err != nil {
		t.Fatal(err)
	}
	res, err := Estimate(ctx, p, eval.NewSource(db), 1, Options{})
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
	o := Options{}.withDefaults()
	if o.Epsilon != DefaultEpsilon || o.Delta != DefaultDelta ||
		o.Seed != DefaultSeed || o.MaxSamples != DefaultMaxSamples {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{Epsilon: 0.2, Delta: 0.01, Seed: 9, MaxSamples: 10}.withDefaults()
	if o.Epsilon != 0.2 || o.Delta != 0.01 || o.Seed != 9 || o.MaxSamples != 10 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}
