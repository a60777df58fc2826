// Quickstart: the prepare-once / execute-many flow of the library. A
// cyclic conjunctive query is prepared against TW(1) — parse, minimize,
// run the NP-hard approximation search, pick an evaluation plan — and
// the resulting PreparedQuery is then evaluated on a database three
// ways: materialised, Boolean, and streamed. Preparing an equivalent
// query again is a cache hit and skips the search entirely.
package main

import (
	"context"
	"fmt"
	"log"

	"cqapprox"
)

func main() {
	ctx := context.Background()
	engine := cqapprox.NewEngine()

	// The triangle query with one output variable: find nodes lying on
	// a directed triangle. Combined complexity |D|^O(|Q|).
	q := cqapprox.MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	fmt.Println("query:            ", q)
	fmt.Println("treewidth:        ", cqapprox.Treewidth(q))
	fmt.Println("acyclic:          ", cqapprox.IsAcyclic(q))

	// Pay the static cost once. The approximation is guaranteed:
	// p.Approx() ⊆ q, acyclic, and no acyclic query sits strictly
	// between them.
	p, err := engine.Prepare(ctx, q, cqapprox.TW(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TW(1) approx:     ", p.Approx())
	fmt.Println("plan:             ", p.PlanMode())
	fmt.Println("contained in q:   ", cqapprox.Contained(p.Approx(), q))

	// A toy social graph: a mutual-follow pair with a self-loop user,
	// and a genuine triangle.
	db := cqapprox.NewStructure()
	edges := [][2]int{
		{1, 2}, {2, 1}, // mutual follows
		{3, 3},                 // self-loop
		{4, 5}, {5, 6}, {6, 4}, // triangle
		{7, 8}, {8, 9}, // stray path
	}
	for _, e := range edges {
		db.Add("E", e[0], e[1])
	}

	// Execute many: the same PreparedQuery serves any database. Bind
	// pairs it with one; Borrow wraps a structure without copying it.
	exact := cqapprox.NaiveEval(q, db)
	b := p.Bind(cqapprox.Borrow(db))
	approx, err := b.Eval(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exact answers:    ", exact)
	fmt.Println("approx answers:   ", approx)

	ok, err := b.EvalBool(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("has any answer:   ", ok)

	// Stream without materialising — break any time, cancel any time.
	fmt.Print("streamed:          ")
	for t := range b.Answers(ctx) {
		fmt.Print(t, " ")
	}
	fmt.Println()

	// Soundness guarantee: every approximate answer is correct.
	for _, t := range approx {
		if !exact.Contains(t) {
			log.Fatalf("unsound answer %v", t)
		}
	}
	fmt.Println("soundness:         every approximate answer is exact ✓")

	// Preparing an alpha-renamed variant hits the cache: no search.
	if _, err := engine.Prepare(ctx, cqapprox.MustParse("Q(a) :- E(a,b), E(b,c), E(c,a)"), cqapprox.TW(1)); err != nil {
		log.Fatal(err)
	}
	s := engine.CacheStats()
	fmt.Printf("cache:             %d search run, %d served from cache\n", s.Misses, s.Hits)
}
