package cqapprox

// E22: the answer counting subsystem. BenchmarkCount measures warm
// BoundQuery.Count over the chain/star/cycle counting workloads — the
// full-join heads produce hundreds of thousands of answers at N=3000,
// all of which exact counting skips materializing (the -benchmem
// numbers stay flat in the answer count). BENCH_eval.json carries the
// baselines and CI's benchcheck gate compares against them.
// FuzzCountEquivalence and TestCountPublicAPI hold the counts to
// full evaluation.

import (
	"context"
	"fmt"
	"testing"

	"cqapprox/internal/workload"
)

func BenchmarkCount(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	for _, c := range workload.CountBenchSuite() {
		p := preparedBenchCase(b, engine, c)
		for _, n := range c.Sizes {
			d, _, err := engine.RegisterDB(fmt.Sprintf("count%d", n), workload.EvalBenchDB(n))
			if err != nil {
				b.Fatal(err)
			}
			bound := p.Bind(d)
			res, err := bound.Count(ctx) // warm the snapshot caches
			if err != nil {
				b.Fatal(err)
			}
			if res.Count == 0 || res.Estimated {
				b.Fatalf("%s/N%d: warmup count = %+v", c.Name, n, res)
			}
			b.Run(fmt.Sprintf("%s/N%d", c.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := bound.Count(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if res.Count == 0 {
						b.Fatal("zero count")
					}
				}
			})
		}
	}
}

// BenchmarkCountEstimate tracks the sampling estimator on the one
// counting workload whose head forces it (projecting the full-chain
// suite's shapes would shortcut to exact, so this uses the classic
// length-2 path projection at the largest size).
func BenchmarkCountEstimate(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	p, err := engine.PrepareExact(ctx, MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := engine.RegisterDB("est", workload.EvalBenchDB(3000))
	if err != nil {
		b.Fatal(err)
	}
	bound := p.Bind(d)
	if _, err := bound.EstimateCount(ctx, WithSeed(1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bound.EstimateCount(ctx, WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Estimated || res.Estimate == 0 {
			b.Fatalf("estimate = %+v", res)
		}
	}
}

// BenchmarkCountExactProject tracks the exact count of the same
// projecting head: the plan has a sampling tree, so the count runs
// Eval's search over the reduced forest and counts its answers
// ("exact-eval") without keeping them.
func BenchmarkCountExactProject(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	p, err := engine.PrepareExact(ctx, MustParse("Q(x,z) :- E(x,y), E(y,z)"))
	if err != nil {
		b.Fatal(err)
	}
	d, _, err := engine.RegisterDB("proj", workload.EvalBenchDB(3000))
	if err != nil {
		b.Fatal(err)
	}
	bound := p.Bind(d)
	want, err := bound.Count(ctx) // warm the snapshot caches
	if err != nil {
		b.Fatal(err)
	}
	if want.Mode != "exact-eval" || want.Count == 0 {
		b.Fatalf("warmup count = %+v", want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bound.Count(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != want.Count {
			b.Fatalf("count = %d, want %d", res.Count, want.Count)
		}
	}
}
