package cqapprox

// E19: the indexed join runtime. BenchmarkIndexedJoin measures warm
// PreparedQuery.Eval over the chain/star/cycle workloads at several
// database sizes — the numbers the committed BENCH_eval.json baseline
// tracks and CI's benchcheck gate compares against (>25% ns/op
// regression fails the build); benchcheck -update rewrites the
// baseline.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cqapprox/internal/workload"
)

// preparedBenchCase prepares one E19 workload on a warm engine.
func preparedBenchCase(b *testing.B, engine *Engine, c workload.EvalBenchCase) *PreparedQuery {
	b.Helper()
	ctx := context.Background()
	var (
		p   *PreparedQuery
		err error
	)
	if c.Exact {
		p, err = engine.PrepareExact(ctx, c.Query)
	} else {
		p, err = engine.Prepare(ctx, c.Query, TW(1))
	}
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkIndexedJoin(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	for _, c := range workload.EvalBenchSuite() {
		p := preparedBenchCase(b, engine, c)
		for _, n := range c.Sizes {
			db := workload.EvalBenchDB(n)
			b.Run(fmt.Sprintf("%s/N%d", c.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ans, err := p.Eval(ctx, db)
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

// BenchmarkIndexedJoinBool tracks the Boolean fast path (single
// semijoin pass) on the largest chain workload.
func BenchmarkIndexedJoinBool(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	suite := workload.EvalBenchSuite()
	p := preparedBenchCase(b, engine, suite[0])
	db := workload.EvalBenchDB(3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := p.Bind(Borrow(db)).EvalBool(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("expected answers")
		}
	}
}

// Observability: the trace-off eval path must stay flat with tracing
// compiled in. BenchmarkEvalTraceOff is the plain warm bound eval —
// the executor runs with its (nil) trace hook present, paying only the
// nil checks — and is benchcheck-gated against the committed baseline.
// BenchmarkEvalTraceOn runs the identical evaluation with the trace
// frame live, bounding what ANALYZE costs when a caller asks for it.
func benchEvalTrace(b *testing.B, traced bool) {
	ctx := context.Background()
	engine := NewEngine()
	suite := workload.EvalBenchSuite()
	p := preparedBenchCase(b, engine, suite[1]) // star5: non-Boolean, all phases run
	d, _, err := engine.RegisterDB("trace3000", workload.EvalBenchDB(3000))
	if err != nil {
		b.Fatal(err)
	}
	bound := p.Bind(d)
	if _, err := bound.Eval(ctx); err != nil { // warm the snapshot caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if traced {
			ans, tr, err := bound.EvalTrace(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if len(ans) == 0 || tr == nil || len(tr.Nodes) == 0 {
				b.Fatal("traced eval returned no answers or an empty trace")
			}
		} else {
			ans, err := bound.Eval(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if len(ans) == 0 {
				b.Fatal("no answers")
			}
		}
	}
}

func BenchmarkEvalTraceOff(b *testing.B) { benchEvalTrace(b, false) }
func BenchmarkEvalTraceOn(b *testing.B)  { benchEvalTrace(b, true) }

// Ranked top-k enumeration. BenchmarkTopK/Ranked streams the first 10
// answers of a lex-connex full-chain query out of the reduced forest
// with early termination; BenchmarkTopK/SortAll is the fallback cost —
// evaluate everything, take the first 10 of the order. The gap is the
// point of the ranked pipeline; both legs are gated rows, and
// FuzzRankedEquivalence asserts the byte-identity of the prefixes.
func BenchmarkTopK(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	q := workload.FullChainQuery(3) // Q(x0..x3), every head position a chain var
	p, err := engine.PrepareExact(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	db := workload.EvalBenchDB(3000)
	order := append([]string{}, q.Head...)
	b.Run("Ranked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := p.Eval(ctx, db, WithOrder(order...), WithLimit(10))
			if err != nil {
				b.Fatal(err)
			}
			if len(ans) != 10 {
				b.Fatalf("top-10 returned %d answers", len(ans))
			}
		}
	})
	b.Run("SortAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ans, err := p.Eval(ctx, db) // canonical sorted order: the same key
			if err != nil {
				b.Fatal(err)
			}
			if len(ans) < 10 {
				b.Fatalf("full eval returned %d answers", len(ans))
			}
		}
	})
}

// E21: morsel-driven parallel evaluation. BenchmarkParallelEval
// measures warm BoundQuery.Eval over registered snapshots with a
// GOMAXPROCS worker budget — against BenchmarkIndexedJoin's serial
// numbers this is the parallel executor's headline. (On single-core
// hosts the budget degenerates to ~serial; the committed baseline is
// regenerated per machine class via benchcheck -update.)
func BenchmarkParallelEval(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	workers := runtime.GOMAXPROCS(0)
	for _, c := range workload.EvalBenchSuite() {
		p := preparedBenchCase(b, engine, c)
		for _, n := range c.Sizes {
			if n != c.Sizes[len(c.Sizes)-1] {
				continue // the largest size is where parallelism matters
			}
			d, _, err := engine.RegisterDB(fmt.Sprintf("par%d", n), workload.EvalBenchDB(n))
			if err != nil {
				b.Fatal(err)
			}
			bound := p.Bind(d)
			opts := []EvalOption{WithEvalParallelism(workers)}
			if _, err := bound.Eval(ctx, opts...); err != nil { // warm the snapshot caches
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/N%d", c.Name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bound.Eval(ctx, opts...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Non-direct acyclic plans: warm BoundQuery.Eval of the two-edge path
// on a registered N=1000 database, with the head projected onto the
// endpoints (proj-xz: the existential y bridges them, so the search
// walks both atoms and cuts after each answer's first witness) and
// with the full head (full-xyz: every join row is an answer). Every
// IndexedJoin, RegisteredDB and ParallelEval workload reads its answers
// from one root; these rows cover the plans whose search walks the
// whole bottom-up-reduced forest.
func BenchmarkNonDirectEval(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	d, _, err := engine.RegisterDB("nondirect1000", workload.EvalBenchDB(1000))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct{ name, src string }{
		{"proj-xz", "Q(x,z) :- E(x,y), E(y,z)"},
		{"full-xyz", "Q(x,y,z) :- E(x,y), E(y,z)"},
	} {
		p, err := engine.PrepareExact(ctx, MustParse(c.src))
		if err != nil {
			b.Fatal(err)
		}
		if ex := p.Explain(); ex.Direct != "" {
			b.Fatalf("%s: plan is direct (%s)", c.name, ex.Direct)
		}
		bq := p.Bind(d)
		if _, err := bq.Eval(ctx); err != nil { // warm the shared indexes outside the timer
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
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

// The leaf chain: warm BoundQuery.Eval of Q(x,z) :- H1(x,h), H2(h,z),
// L(h,y0), …, L(h,y11) on its registered 33-fact database (16
// answers), with the head atoms named A/B (sorting before the leaves)
// and Y/Z (after them). At 15 variables the exact prepare keeps the
// twelve redundant leaves, so the plan must leave them to existence
// checks below the head atoms; a search binding them visits 16^12
// rows.
func BenchmarkLeafChain(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine(WithParallelism(1))
	for _, c := range []struct{ name, h1, h2 string }{{"AB", "A", "B"}, {"YZ", "Y", "Z"}} {
		p, err := engine.PrepareExact(ctx, workload.LeafChainQuery(12, c.h1, c.h2, "L"))
		if err != nil {
			b.Fatal(err)
		}
		if n := len(p.Approx().Atoms); n != 14 {
			b.Fatalf("%s: the prepared query has %d atoms, want all 14", c.name, n)
		}
		d, _, err := engine.RegisterDB("leafchain"+c.name, workload.LeafChainDB(c.h1, c.h2, "L"))
		if err != nil {
			b.Fatal(err)
		}
		bq := p.Bind(d)
		if _, err := bq.Eval(ctx); err != nil { // warm the shared indexes outside the timer
			b.Fatal(err)
		}
		b.Run(c.name+"/k12", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ans, err := bq.Eval(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(ans) != 16 {
					b.Fatalf("%d answers, want 16", len(ans))
				}
			}
		})
	}
}

// Bag mode: warm Eval of cyclic TW(2)/HTW(2) approximations, which
// plan as a search over a tree decomposition, on a registered N=300
// database (the social graph plus a ternary R that the prepare_cold
// workload of perfbench uses). The C5 and T3 approximations are
// Boolean.
func BenchmarkCyclicEval(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine(WithParallelism(1))
	rng := rand.New(rand.NewSource(300))
	raw := workload.RandomSocial(rng, 300, 4, 0.3)
	tern := workload.RandomTernary(rng, 300, 900)
	raw.Declare("R", 3)
	for _, t := range tern.Tuples("R") {
		raw.Add("R", t...)
	}
	d, _, err := engine.RegisterDB("cyclic300", raw)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		q     *Query
		class Class
	}{
		{"C4x-TW2", workload.CycleQueryFree(4), TW(2)},
		{"C5-HTW2", workload.CycleQuery(5), HTW(2)},
		{"T3-TW2", workload.TernaryCycleQuery(3), TW(2)},
	} {
		p, err := engine.Prepare(ctx, c.q, c.class)
		if err != nil {
			b.Fatal(err)
		}
		if p.PlanMode() != "bags" {
			b.Fatalf("%s: plan %s, want bags", c.name, p.PlanMode())
		}
		bq := p.Bind(d)
		if _, err := bq.Eval(ctx); err != nil { // warm the shared indexes outside the timer
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bq.Eval(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
