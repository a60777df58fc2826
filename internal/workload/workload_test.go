package workload

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cqapprox/internal/core"
)

func TestRandomDigraphSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := RandomDigraph(rng, 50, 200)
	if db.NumFacts() == 0 || db.NumFacts() > 200 {
		t.Fatalf("NumFacts = %d", db.NumFacts())
	}
	if db.DomainSize() > 50 {
		t.Fatalf("domain = %d", db.DomainSize())
	}
}

func TestRandomSocialReciprocity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := RandomSocial(rng, 200, 4, 0.5)
	recip, total := 0, 0
	for _, e := range db.Tuples("E") {
		total++
		if db.Has("E", e[1], e[0]) {
			recip++
		}
	}
	if total == 0 {
		t.Fatal("no edges")
	}
	if recip == 0 {
		t.Fatal("no reciprocated edges with reciprocity 0.5")
	}
}

func TestLayeredDAGIsBalancedShaped(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := LayeredDAG(rng, 4, 5, 2)
	// All edges go from layer l to l+1: check span.
	for _, e := range db.Tuples("E") {
		if e[1]/5 != e[0]/5+1 {
			t.Fatalf("edge %v crosses layers badly", e)
		}
	}
}

func TestCycleQueryShape(t *testing.T) {
	q := CycleQuery(5)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.NumVars() != 5 || len(q.Atoms) != 5 || !q.IsBoolean() {
		t.Fatalf("C5 = %v", q)
	}
	if core.TW(1).Contains(q.Tableau().S) {
		t.Fatal("cycle queries are not treewidth 1")
	}
	if !core.TW(2).Contains(q.Tableau().S) {
		t.Fatal("cycle queries are treewidth 2")
	}
}

func TestCycleQueryFree(t *testing.T) {
	q := CycleQueryFree(4)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 1 {
		t.Fatalf("head = %v", q.Head)
	}
}

func TestChordedCycleTreewidth(t *testing.T) {
	q := ChordedCycleQuery(6)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if w := core.Treewidth(q.Tableau().S); w != 2 {
		t.Fatalf("tw = %d, want 2", w)
	}
}

func TestTernaryCycleQuery(t *testing.T) {
	q := TernaryCycleQuery(3)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if core.AC().Contains(q.Tableau().S) {
		t.Fatal("ternary cycle should be cyclic")
	}
	if q.NumVars() != 6 {
		t.Fatalf("vars = %d, want 6", q.NumVars())
	}
}

func TestGridQuery(t *testing.T) {
	q := GridQuery(2, 3)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if w := core.Treewidth(q.Tableau().S); w != 2 {
		t.Fatalf("tw(2x3 grid) = %d, want 2", w)
	}
}

func TestRandomGraphQueryValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		q := RandomGraphQuery(rng, 4, 5)
		if err := q.Validate(); err != nil {
			t.Fatalf("invalid random query %v: %v", q, err)
		}
	}
}

func TestQuerySuiteValid(t *testing.T) {
	for _, q := range QuerySuite() {
		if err := q.Validate(); err != nil {
			t.Fatalf("%v: %v", q, err)
		}
		if q.NumVars() > 10 {
			t.Fatalf("%v exceeds the approximation engine's default MaxVars", q)
		}
	}
}

func TestCountBenchSuiteValid(t *testing.T) {
	for _, c := range CountBenchSuite() {
		if err := c.Query.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
	if got := len(FullChainQuery(3).Head); got != 4 {
		t.Fatalf("FullChain3 head arity = %d, want 4", got)
	}
	if got := len(FullStarQuery(5).Head); got != 6 {
		t.Fatalf("FullStar5 head arity = %d, want 6", got)
	}
}

// CountShare turns a fraction of eval ops into count ops — in both
// exact and estimate flavours — while CountShare == 0 reproduces the
// pre-counting op sequence bit for bit.
func TestCountShareOps(t *testing.T) {
	collect := func(g *LoadGen, n int) []Op {
		var (
			mu  sync.Mutex
			ops []Op
		)
		g.Concurrency = 1
		g.Run(context.Background(), n, func(_ context.Context, op Op) error {
			mu.Lock()
			ops = append(ops, op)
			mu.Unlock()
			return nil
		})
		return ops
	}
	base := collect(&LoadGen{Seed: 9}, 200)
	same := collect(&LoadGen{Seed: 9, CountShare: 0}, 200)
	for i := range base {
		if base[i].Kind != same[i].Kind || base[i].Query.String() != same[i].Query.String() {
			t.Fatalf("op %d diverges with CountShare=0: %+v vs %+v", i, base[i], same[i])
		}
	}
	counted := collect(&LoadGen{Seed: 9, CountShare: 0.5}, 200)
	var exact, est int
	for _, op := range counted {
		if op.Kind != OpCount {
			if op.Estimate {
				t.Fatalf("Estimate set on %v op", op.Kind)
			}
			continue
		}
		if op.Query == nil || op.DB == nil {
			t.Fatalf("count op missing query or database: %+v", op)
		}
		if op.Estimate {
			est++
		} else {
			exact++
		}
	}
	if exact == 0 || est == 0 {
		t.Fatalf("CountShare=0.5 over 200 ops: %d exact / %d estimated counts", exact, est)
	}
}

// TraceShare marks a fraction of eval/count ops as traced, never
// touches prepare/stream ops, leaves the TraceShare == 0 sequence
// bit-identical, and the Report splits traced from untraced latency.
func TestTraceShareOps(t *testing.T) {
	collect := func(g *LoadGen, n int) []Op {
		var (
			mu  sync.Mutex
			ops []Op
		)
		g.Concurrency = 1
		g.Run(context.Background(), n, func(_ context.Context, op Op) error {
			mu.Lock()
			ops = append(ops, op)
			mu.Unlock()
			return nil
		})
		return ops
	}
	base := collect(&LoadGen{Seed: 9, CountShare: 0.5}, 200)
	same := collect(&LoadGen{Seed: 9, CountShare: 0.5, TraceShare: 0}, 200)
	for i := range base {
		if base[i].Kind != same[i].Kind || base[i].Query.String() != same[i].Query.String() {
			t.Fatalf("op %d diverges with TraceShare=0: %+v vs %+v", i, base[i], same[i])
		}
	}
	traced := collect(&LoadGen{Seed: 9, CountShare: 0.5, TraceShare: 0.5}, 200)
	var on, off int
	for _, op := range traced {
		if op.Trace {
			if op.Kind != OpEval && op.Kind != OpCount {
				t.Fatalf("Trace set on %v op", op.Kind)
			}
			on++
		} else if op.Kind == OpEval || op.Kind == OpCount {
			off++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("TraceShare=0.5 over 200 ops: %d traced / %d untraced", on, off)
	}

	// Traced ops sleep well past the scheduler's timer granularity so
	// the mean split is unambiguous.
	g := &LoadGen{Seed: 9, CountShare: 0.5, TraceShare: 0.5, Concurrency: 4}
	rep := g.Run(context.Background(), 200, func(_ context.Context, op Op) error {
		if op.Trace {
			time.Sleep(5 * time.Millisecond)
		}
		return nil
	})
	if rep.TracedOps[OpEval] == 0 || rep.TracedOps[OpEval] == rep.Ops[OpEval] {
		t.Fatalf("traced eval split degenerate: %d of %d", rep.TracedOps[OpEval], rep.Ops[OpEval])
	}
	tr, un := rep.TraceOverhead(OpEval)
	if tr <= un {
		t.Fatalf("traced mean %v not above untraced mean %v despite slower traced executor", tr, un)
	}
	if tr2, _ := rep.TraceOverhead(OpRegisterDB); tr2 != 0 {
		t.Fatalf("trace overhead reported for a kind never traced: %v", tr2)
	}
}

// Run reports per-kind latency quantiles alongside the totals.
func TestReportQuantiles(t *testing.T) {
	g := &LoadGen{Seed: 3, Concurrency: 4, CountShare: 0.3}
	rep := g.Run(context.Background(), 120, func(_ context.Context, op Op) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if len(rep.FirstErrs) > 0 {
		t.Fatal(rep.FirstErrs)
	}
	for _, k := range []OpKind{OpPrepare, OpEval, OpStream, OpCount} {
		if rep.Ops[k] == 0 {
			t.Fatalf("no %v ops in the mixed run", k)
		}
		if rep.P50[k] <= 0 || rep.P50[k] > rep.P95[k] || rep.P95[k] > rep.P99[k] {
			t.Fatalf("%v quantiles unordered: p50=%v p95=%v p99=%v",
				k, rep.P50[k], rep.P95[k], rep.P99[k])
		}
		if rep.P99[k] > rep.Latency[k] {
			t.Fatalf("%v p99 %v exceeds the kind's total latency %v", k, rep.P99[k], rep.Latency[k])
		}
	}
	if rep.P50[OpRegisterDB] != 0 {
		t.Fatalf("quantiles reported for a kind that never ran: %v", rep.P50[OpRegisterDB])
	}
}
