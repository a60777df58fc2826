package cqapprox

// E24: incremental view maintenance. BenchmarkIncrementalEval puts a
// number on the subsystem's reason to exist: propagating a
// single-tuple delta through the maintained reduced forest
// (IncrementalEval.Advance) versus re-evaluating the bound query from
// scratch on the changed snapshot — same query, same database, same
// change. Both legs run against the same pair of pre-forked snapshots
// (base, base plus one fact) with warm index caches, so the
// copy-on-write fork — infrastructure either strategy pays identically
// per update — stays out of both timers and the comparison isolates
// the re-evaluation work. Each iteration alternates the insert and
// the delete direction so every advance does real work. Tracked in the
// committed BENCH_eval.json baseline and gated by CI's benchcheck;
// TestIncrementalEvalSingleTupleSequence and FuzzIncrementalEquivalence
// assert the diff-vs-oracle equivalence.

import (
	"context"
	"fmt"
	"testing"

	"cqapprox/internal/workload"
)

// incrBenchCase is one query/relation pair of the incremental
// benchmark: the deltas touch Rel, which the query joins on.
type incrBenchCase struct {
	name string
	q    func() *BoundQuery // fresh bound query on the N-sized bench db
	rel  string
}

func incrBenchCases(b *testing.B, engine *Engine, db *Database) []incrBenchCase {
	ctx := context.Background()
	bind := func(qsrc string) func() *BoundQuery {
		return func() *BoundQuery {
			q, err := Parse(qsrc)
			if err != nil {
				b.Fatal(err)
			}
			p, err := engine.PrepareExact(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			return p.Bind(db)
		}
	}
	return []incrBenchCase{
		{"chain3", bind("Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)"), "E"},
		{"star3", bind("Q(c) :- R1(c,l1), R2(c,l2), R3(c,l3)"), "R1"},
	}
}

func BenchmarkIncrementalEval(b *testing.B) {
	ctx := context.Background()
	engine := NewEngine()
	const n = 3000
	raw := workload.EvalBenchDB(n)
	db0 := Snapshot(raw)
	cases := incrBenchCases(b, engine, db0)
	for _, c := range cases {
		// One fresh fact, outside the generated value range: db1 is db0
		// with the fact present. Even iterations advance db0 -> db1
		// (insert), odd ones db1 -> db0 (delete).
		ins := NewDelta().Insert(c.rel, n+7, n+8)
		del := NewDelta().Delete(c.rel, n+7, n+8)
		db1, err := db0.Update(ins)
		if err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("Delta/%s/N%d", c.name, n), func(b *testing.B) {
			benchAdvance(b, c, db0, db1, ins, del)
		})

		b.Run(fmt.Sprintf("FullReeval/%s/N%d", c.name, n), func(b *testing.B) {
			bq := c.q()
			if _, err := bq.Eval(ctx); err != nil { // warm db0's indexes
				b.Fatal(err)
			}
			if _, err := bq.Prepared().Bind(db1).Eval(ctx); err != nil { // warm db1's
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := db1
				if i%2 == 1 {
					db = db0
				}
				if _, err := bq.Prepared().Bind(db).Eval(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// An existing edge inside the graph, between two nodes of out-degree
	// at least two: its delete removes a link that other 3-paths run
	// beside, so each chain3 candidate is re-checked for another witness
	// on the changed snapshot. Even iterations delete it, odd ones put
	// it back.
	e, ok := branchingEdge(raw)
	if !ok {
		b.Fatal("bench graph has no edge between two branching nodes")
	}
	del := NewDelta().Delete("E", e[0], e[1])
	ins := NewDelta().Insert("E", e[0], e[1])
	db1, err := db0.Update(del)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("Delta/chain3-edge/N%d", n), func(b *testing.B) {
		benchAdvance(b, cases[0], db0, db1, del, ins)
	})
}

// benchAdvance times IncrementalEval.Advance alternating db0 -> db1 by
// fwd (even iterations) and db1 -> db0 by back (odd ones), failing on
// any fallback.
func benchAdvance(b *testing.B, c incrBenchCase, db0, db1 *Database, fwd, back *Delta) {
	ctx := context.Background()
	ie, err := c.q().Incremental(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if !ie.Supported() {
		b.Fatalf("%s: plan does not support incremental maintenance", c.name)
	}
	// One full cycle outside the timer warms both snapshots' view and
	// index caches.
	if _, err := ie.Advance(ctx, db1, fwd); err != nil {
		b.Fatal(err)
	}
	if _, err := ie.Advance(ctx, db0, back); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, d := db1, fwd
		if i%2 == 1 {
			next, d = db0, back
		}
		diff, err := ie.Advance(ctx, next, d)
		if err != nil {
			b.Fatal(err)
		}
		if diff.Fallback {
			b.Fatalf("fallback: %s", diff.Reason)
		}
	}
}

// branchingEdge returns the lexicographically first E edge (a, b) of s
// with a != b whose endpoints both have out-degree at least two.
func branchingEdge(s *Structure) ([2]int, bool) {
	out := map[int]int{}
	for _, t := range s.Tuples("E") {
		out[t[0]]++
	}
	for _, t := range s.SortedTuples("E") {
		if t[0] != t[1] && out[t[0]] >= 2 && out[t[1]] >= 2 {
			return [2]int{t[0], t[1]}, true
		}
	}
	return [2]int{}, false
}
