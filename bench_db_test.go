package cqapprox

// E20: the database snapshot API. BenchmarkRegisteredDB measures warm
// BoundQuery.Eval — prepared queries evaluating against a registered
// snapshot whose index cache is already hot — over the same workloads
// and sizes as BenchmarkIndexedJoin, so the two benchmark families
// quantify exactly the cost the snapshot moves out of the per-call
// path (atom materialisation + per-call index builds). Tracked in the
// committed BENCH_eval.json baseline and gated by CI's benchcheck.
// TestRegisteredDBIndexReuse asserts the warm evaluations build no
// index.

import (
	"context"
	"fmt"
	"testing"

	"cqapprox/internal/workload"
)

func BenchmarkRegisteredDB(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	dbs := map[int]*Database{}
	for _, n := range []int{300, 1000, 3000} {
		d, _, err := engine.RegisterDB(fmt.Sprintf("bench%d", n), workload.EvalBenchDB(n))
		if err != nil {
			b.Fatal(err)
		}
		dbs[n] = d
	}
	for _, c := range workload.EvalBenchSuite() {
		p := preparedBenchCase(b, engine, c)
		for _, n := range c.Sizes {
			bq := p.Bind(dbs[n])
			if _, err := bq.Eval(ctx); err != nil { // warm the shared indexes outside the timer
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/N%d", c.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ans, err := bq.Eval(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if len(ans) == 0 {
						b.Fatal("no answers")
					}
				}
			})
		}
	}
}
