package eval

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// bigDB returns a database large enough to clear the production
// parallel thresholds (morsels fan out without test tuning).
func bigDB(seed int64, n, m int) *relstr.Structure {
	rng := rand.New(rand.NewSource(seed))
	db := relstr.New()
	db.Declare("E", 2)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
	}
	return db
}

// The parallel executor at production thresholds (no tuning knobs)
// returns byte-identical answers to the serial one, on both backends,
// for the chain and star shapes the morsel fan-out targets.
func TestParallelProductionThresholds(t *testing.T) {
	ctx := context.Background()
	db := bigDB(7, 800, 12000)
	for i := 1; i <= 3; i++ {
		rng := rand.New(rand.NewSource(int64(10 + i)))
		rel := "R" + string(rune('0'+i))
		db.Declare(rel, 2)
		for j := 0; j < 6000; j++ {
			db.Add(rel, rng.Intn(800), rng.Intn(800))
		}
	}
	snap := relstr.NewSnapshot(db)
	queries := []string{
		"Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3), E(x3,x4)",
		"Q(c) :- R1(c,l1), R2(c,l2), R3(c,l3)",
		"Q() :- E(x0,x1), E(x1,x2), E(x2,x3)",
	}
	for _, src := range queries {
		p := NewPlan(cq.MustParse(src))
		if p.Mode() != PlanYannakakis {
			t.Fatalf("%s: expected acyclic plan", src)
		}
		want, _, err := p.Eval(ctx, relstr.Borrow(db), Read{})
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []struct {
			name string
			s    func() *relstr.Snapshot
		}{{"struct", func() *relstr.Snapshot { return relstr.Borrow(db) }}, {"snapshot", func() *relstr.Snapshot { return snap }}} {
			got, _, err := p.Eval(ctx, backend.s(), Read{Par: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswers(got, want) {
				t.Fatalf("%s/%s: parallel answers diverge (%d vs %d)", src, backend.name, len(got), len(want))
			}
			ok, _, err := p.Bool(ctx, backend.s(), Read{Par: 8})
			if err != nil || ok != (len(want) > 0) {
				t.Fatalf("%s/%s: parallel bool = %v, err %v", src, backend.name, ok, err)
			}
		}
	}
}

// One plan, one snapshot, many goroutines, parallel workers inside
// each evaluation: the per-call forests must stay fully independent
// (run under -race in CI's dedicated eval job).
func TestParallelConcurrentPlanUse(t *testing.T) {
	ctx := context.Background()
	db := bigDB(11, 400, 5000)
	snap := relstr.NewSnapshot(db)
	p := NewPlan(cq.MustParse("Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)"))
	want, _, err := p.Eval(ctx, relstr.Borrow(db), Read{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				src := relstr.Borrow(db)
				if g%2 == 0 {
					src = snap
				}
				got, _, err := p.Eval(ctx, src, Read{Par: 4})
				if err != nil {
					errs <- err
					return
				}
				if !sameAnswers(got, want) {
					t.Errorf("goroutine %d: answers diverge", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.IndexStats(); st.ParallelEvals == 0 {
		t.Fatalf("parallel evals not counted: %+v", st)
	}
}
