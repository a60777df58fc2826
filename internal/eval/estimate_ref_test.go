package eval_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cqapprox/internal/count"
	"cqapprox/internal/eval"
	"cqapprox/internal/relstr"
)

// count.Estimate returns the same Estimate, Samples and Batches with
// the production sampler as with the reference O(forest) step, for
// every seed, on random projecting queries.
func TestQuickEstimateMatchesReference(t *testing.T) {
	ctx := context.Background()
	estimate := func(p *eval.Plan, src *relstr.Snapshot, seed int64) count.Result {
		res, _, err := count.Estimate(ctx, p, src, 1, count.Options{Epsilon: 0.25, Seed: seed}, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	f := func(seed int64) bool {
		q, db := eval.RandomProjectingCase(rand.New(rand.NewSource(seed)))
		p := eval.NewPlan(q)
		src := relstr.Borrow(db)
		for s := int64(1); s <= 3; s++ {
			got := estimate(p, src, seed+s)
			restore := eval.UseReferenceSampler()
			want := estimate(p, src, seed+s)
			restore()
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
