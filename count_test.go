package cqapprox

import (
	"context"
	"math"
	"testing"

	"cqapprox/internal/workload"
)

// Count and EstimateCount agree with a full evaluation across the
// public surface: prepared queries over plain structures, bound
// queries over registered snapshots, exact and estimated modes.
func TestCountPublicAPI(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	db := workload.EvalBenchDB(300)
	d, _, err := engine.RegisterDB("bench", db)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*Query{
		workload.ChainQuery(4),                // free-connex-ish head
		workload.StarQuery(3),                 // center head var
		MustParse("Q(x,z) :- E(x,y), E(y,z)"), // sampling-classified
	}
	for _, q := range queries {
		p, err := engine.PrepareExact(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.Eval(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(len(ans))

		res, err := p.Count(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want || res.Estimated {
			t.Fatalf("%s: Count = %d (estimated=%v), want exact %d", q.Name, res.Count, res.Estimated, want)
		}

		bres, err := p.Bind(d).Count(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if bres.Count != want || bres.Mode != res.Mode {
			t.Fatalf("%s: bound Count = %d mode %s, unbound %d mode %s",
				q.Name, bres.Count, bres.Mode, want, res.Mode)
		}

		est, err := p.EstimateCount(ctx, db, WithEpsilon(0.1), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if want > 0 {
			if rel := math.Abs(est.Estimate-float64(want)) / float64(want); rel > 0.1 {
				t.Fatalf("%s: estimate %v vs %d, rel err %.4f", q.Name, est.Estimate, want, rel)
			}
		}
		best, err := p.Bind(d).EstimateCount(ctx, WithEpsilon(0.1), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if best.Estimate != est.Estimate || best.Estimated != est.Estimated {
			t.Fatalf("%s: bound estimate %v diverges from unbound %v", q.Name, best.Estimate, est.Estimate)
		}
	}
}

// A parallel count (WithEvalParallelism) matches the serial one.
func TestCountParallelIdentical(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	db := workload.EvalBenchDB(300)
	p, err := engine.PrepareExact(ctx, workload.ChainQuery(5))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := p.Count(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.Count(ctx, db, WithEvalParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Count != par.Count {
		t.Fatalf("parallel count %d, serial %d", par.Count, serial.Count)
	}
}

// Counting calls surface in the engine-wide cache statistics.
func TestCountCacheStats(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	db := workload.EvalBenchDB(300)
	p, err := engine.PrepareExact(ctx, MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Count(ctx, db); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EstimateCount(ctx, db, WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	st := engine.CacheStats()
	if st.Indexes.ExactCounts != 1 {
		t.Errorf("ExactCounts = %d, want 1", st.Indexes.ExactCounts)
	}
	if st.Indexes.EstimatedCounts != 1 {
		t.Errorf("EstimatedCounts = %d, want 1", st.Indexes.EstimatedCounts)
	}
	if st.Indexes.SampleBatches == 0 {
		t.Error("SampleBatches = 0 after an estimated count")
	}
}
