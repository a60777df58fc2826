package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cqapprox"
	"cqapprox/internal/core"
	"cqapprox/internal/cq"
	"cqapprox/internal/digraph"
	"cqapprox/internal/eval"
	"cqapprox/internal/gadgets"
	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
	"cqapprox/internal/workload"
)

// expFigure1 reproduces the paper's Figure 1 as measured data: for
// every query in the suite and every class, approximations exist, their
// minimized sizes respect the paper's bounds (≤ |Q| joins for
// graph-based classes, polynomial for hypergraph-based), and the
// computation is single-exponential (wall-clock reported).
func expFigure1() error {
	// This experiment runs on the public Engine: each (query, class)
	// pair is prepared once — minimize → approximation search → plan —
	// and the second pass over the suite shows the prepared-query cache
	// answering without re-running any search.
	engine := cqapprox.NewEngine()
	ctx := context.Background()
	classes := []cqapprox.Class{cqapprox.TW(1), cqapprox.TW(2), cqapprox.AC(), cqapprox.HTW(2)}
	fmt.Printf("%-14s %-8s %8s %10s %10s %12s %12s\n",
		"query", "class", "#approx", "max joins", "Q joins", "prepare", "cached")
	for _, q := range workload.QuerySuite() {
		for _, c := range classes {
			start := time.Now()
			p, err := engine.Prepare(ctx, q, c)
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			apps := p.Approximations()
			maxJoins := 0
			for _, a := range apps {
				if a.NumJoins() > maxJoins {
					maxJoins = a.NumJoins()
				}
			}
			start = time.Now()
			if _, err := engine.Prepare(ctx, q, c); err != nil {
				return err
			}
			cached := time.Since(start)
			fmt.Printf("%-14s %-8s %8d %10d %10d %12s %12s\n",
				q.Name, c.Name(), len(apps), maxJoins, q.NumJoins(),
				elapsed.Round(time.Microsecond), cached.Round(time.Microsecond))
			if len(apps) == 0 {
				return fmt.Errorf("no %s-approximation for %v (existence violated)", c.Name(), q)
			}
		}
	}
	stats := engine.CacheStats()
	fmt.Printf("engine cache: %d searches run, %d served from cache\n", stats.Misses, stats.Hits)
	fmt.Println("existence: always (Cor 4.2/6.5); graph-based join counts ≤ |Q| (Thm 4.1)")
	return nil
}

// expProp44 verifies the exponential lower bound on the number of
// minimized acyclic approximations.
func expProp44() error {
	fmt.Printf("%4s %8s %8s %12s %10s\n", "n", "|vars|", "joins", "witnesses", "2^n")
	for n := 1; n <= 3; n++ {
		gn := gadgets.NewGn(n)
		labels := gadgets.AllLabels(n)
		graphs := map[string]*relstr.Structure{}
		for _, s := range labels {
			graphs[s] = gadgets.NewGns(n, s)
		}
		count := 0
		for _, s := range labels {
			gs := graphs[s]
			if !digraph.IsForestLike(gs) || !hom.Exists(gn.G, gs, nil) {
				continue
			}
			incomparable := true
			for _, u := range labels {
				if u != s && digraph.ExistsHomLeveled(gs, graphs[u]) {
					incomparable = false
					break
				}
			}
			if incomparable {
				count++
			}
		}
		fmt.Printf("%4d %8d %8d %12d %10d\n", n, gn.G.DomainSize(), gn.G.NumFacts()-1, count, 1<<n)
		if count != 1<<n {
			return fmt.Errorf("n=%d: %d witnesses, want %d", n, count, 1<<n)
		}
	}
	fmt.Println("each witness is an acyclic core ⊆ Q_n, pairwise incomparable (Claims 4.6–4.9)")
	return nil
}

// expTrichotomy classifies Boolean graph queries and cross-checks the
// computed acyclic approximations against Theorem 5.1.
func expTrichotomy() error {
	cases := []string{
		"Q() :- E(x,y), E(y,z), E(z,x)",
		"Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
		"Q() :- E(x,y), E(y,z), E(z,u), E(x,u)",
		"Q() :- E(a,b), E(c,b), E(c,d), E(a,d), E(d,e)",
		"Q() :- E(a,b), E(b,c), E(c,d), E(a,d)",
	}
	fmt.Printf("%-42s %-22s %-10s %s\n", "query", "kind", "#approx", "approximation")
	for _, src := range cases {
		q := cq.MustParse(src)
		// The trichotomy is about queries outside TW(1); one inside is
		// its own approximation.
		if cyclic, err := core.IsCyclicGraphQuery(q); err != nil || !cyclic {
			return fmt.Errorf("%s: not an oriented cycle (%v)", src, err)
		}
		kind, err := core.ClassifyGraphTableau(q)
		if err != nil {
			return err
		}
		apps, err := core.Approximations(q, core.TW(1), core.DefaultOptions())
		if err != nil {
			return err
		}
		desc := "nontrivial, 2-cycle-free"
		switch kind {
		case core.NonBipartite:
			if len(apps) != 1 || !core.IsTrivialQuery(apps[0]) {
				return fmt.Errorf("%s: trichotomy violated", src)
			}
			desc = "Q_trivial only"
		case core.BipartiteUnbalanced:
			if len(apps) != 1 || !hom.Equivalent(apps[0], core.TrivialBipartite()) {
				return fmt.Errorf("%s: trichotomy violated", src)
			}
			desc = "K2↔ only"
		case core.BipartiteBalanced:
			for _, a := range apps {
				if core.IsTrivialQuery(a) {
					return fmt.Errorf("%s: trivial approximation in balanced case", src)
				}
			}
		}
		fmt.Printf("%-42s %-22s %-10d %s\n", src, kind, len(apps), desc)
	}
	return nil
}

// expJoins verifies Corollary 5.3 on a suite of cyclic Boolean graph
// queries.
func expJoins() error {
	fmt.Printf("%-46s %8s %14s\n", "query", "Q joins", "approx joins")
	for _, src := range []string{
		"Q() :- E(x,y), E(y,z), E(z,x)",
		"Q() :- E(x,y), E(y,z), E(z,u), E(u,x)",
		"Q() :- E(x,y), E(y,z), E(z,u), E(x,u)",
		"Q() :- E(a,b), E(b,c), E(c,d), E(d,e), E(e,a)",
		"Q() :- E(a,b), E(b,c), E(c,a), E(c,d)",
	} {
		q := cq.MustParse(src)
		cmp, err := core.CompareJoins(q, core.TW(1), core.DefaultOptions())
		if err != nil {
			return err
		}
		for i, j := range cmp.Joins {
			if j >= cmp.QueryJoins {
				return fmt.Errorf("%s: approximation %v does not reduce joins", src, cmp.Approx[i])
			}
		}
		fmt.Printf("%-46s %8d %14v\n", src, cmp.QueryJoins, cmp.Joins)
	}
	fmt.Println("all minimized acyclic approximations have strictly fewer joins (Cor 5.3)")
	return nil
}

// expDichotomy cross-checks the (k+1)-colorability dichotomy of
// Theorems 5.8 and 5.10 against the computed approximations.
func expDichotomy() error {
	cases := []string{
		"Q(x,y) :- E(x,y), E(y,z), E(z,x)",
		"Q(x) :- E(x,y), E(y,z), E(z,u), E(u,x)",
		"Q() :- E(x,y), E(y,z), E(z,x)",
	}
	fmt.Printf("%-40s %4s %12s %12s %8s\n", "query", "k", "colorable", "loop-free", "agree")
	for _, src := range cases {
		q := cq.MustParse(src)
		for _, k := range []int{1, 2} {
			colorable, err := core.HasLoopFreeTWkApproximation(q, k)
			if err != nil {
				return err
			}
			apps, err := core.Approximations(q, core.TW(k), core.DefaultOptions())
			if err != nil {
				return err
			}
			loopFree := false
			for _, a := range apps {
				has := false
				for _, at := range a.Atoms {
					if at.Args[0] == at.Args[1] {
						has = true
					}
				}
				if !has {
					loopFree = true
				}
			}
			agree := colorable == loopFree
			fmt.Printf("%-40s %4d %12v %12v %8v\n", src, k, colorable, loopFree, agree)
			if !agree {
				return fmt.Errorf("%s, k=%d: dichotomy violated", src, k)
			}
			if q.IsBoolean() {
				// Corollary 5.11: a nontrivial approximation exists iff
				// T_Q is (k+1)-colorable, iff Q_triv(k+1) — tableau
				// K_{k+1}↔, treewidth k — is contained in Q.
				nontrivial, err := core.NontrivialTWkApproximationExists(q, k)
				if err != nil {
					return err
				}
				found := slices.ContainsFunc(apps, func(a *cq.Query) bool { return !core.IsTrivialQuery(a) })
				if nontrivial != found || nontrivial != hom.Contained(core.TrivialK(k+1), q) {
					return fmt.Errorf("%s, k=%d: Corollary 5.11 violated", src, k)
				}
			}
		}
	}
	return nil
}

// expProp59 verifies the equal-join-count phenomenon for the paper's
// non-Boolean 4-cycle query.
func expProp59() error {
	q := cq.MustParse("Q(x1,x2,x3) :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x1)")
	cmp, err := core.CompareJoins(q, core.TW(1), core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("query: %v (%d joins, minimized)\n", q, cmp.QueryJoins)
	for i, a := range cmp.Approx {
		fmt.Printf("  approx: %v (%d joins)\n", a, cmp.Joins[i])
		if cmp.Joins[i] != cmp.QueryJoins {
			return fmt.Errorf("join count %d ≠ %d", cmp.Joins[i], cmp.QueryJoins)
		}
	}
	fmt.Println("all minimized acyclic approximations have exactly as many joins as Q (Prop 5.9)")
	return nil
}

// expEx66 reproduces Example 6.6 in full.
func expEx66() error {
	q := cq.MustParse("Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)")
	apps, err := core.Approximations(q, core.AC(), core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("query: %v (%d joins)\n", q, q.NumJoins())
	for _, a := range apps {
		fmt.Printf("  acyclic approximation: %v (%d joins)\n", a, a.NumJoins())
	}
	if len(apps) != 3 {
		return fmt.Errorf("%d approximations, want 3", len(apps))
	}
	fmt.Println("exactly 3 non-equivalent acyclic approximations: fewer/equal/more joins (Ex 6.6)")
	return nil
}

// expExample57 verifies the unique P4 approximation of the intro's Q2.
func expExample57() error {
	g := gadgets.Example57()
	q := cq.FromTableau(g, nil, nil)
	apps, err := core.Approximations(q, core.TW(1), core.Options{})
	if err != nil {
		return err
	}
	p4 := cq.MustParse("P() :- E(a,b), E(b,c), E(c,d), E(d,e)")
	fmt.Printf("query: %v\n", q)
	for _, a := range apps {
		fmt.Printf("  acyclic approximation: %v (≡ P4: %v)\n", a, hom.Equivalent(a, p4))
	}
	if len(apps) != 1 || !hom.Equivalent(apps[0], p4) {
		return fmt.Errorf("expected the unique approximation P4")
	}
	return nil
}

// expSpeedup is the introduction's motivating experiment: exact
// |D|^O(|Q|) evaluation versus the approximation's O(|D|·|Q'|).
func expSpeedup() error {
	q := cq.MustParse("Q(x) :- E(x,y), E(y,z), E(z,w), E(w,x)")
	a, err := core.Approximate(q, core.TW(1), core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("query %v, approximation %v\n", q, a)
	fmt.Printf("%8s %10s %12s %12s %8s %8s\n", "|V|", "|D|", "exact", "approx", "speedup", "recall")
	var prevRatio float64
	for _, n := range []int{200, 1000, 3000} {
		rng := rand.New(rand.NewSource(42))
		db := workload.RandomSocial(rng, n, 6, 0.3)
		t0 := time.Now()
		exact := eval.Naive(q, db)
		te := time.Since(t0)
		t0 = time.Now()
		approx := eval.Eval(a, db)
		ta := time.Since(t0)
		recall := 1.0
		if len(exact) > 0 {
			recall = float64(len(approx)) / float64(len(exact))
		}
		ratio := float64(te) / float64(ta)
		fmt.Printf("%8d %10d %12s %12s %7.1fx %7.1f%%\n",
			n, db.NumFacts(), te.Round(time.Microsecond), ta.Round(time.Microsecond),
			ratio, 100*recall)
		if ratio < prevRatio*0.5 {
			return fmt.Errorf("speedup ratio should grow with |D|")
		}
		prevRatio = ratio
	}
	fmt.Println("the exact/approx ratio grows with |D| — the shape of §1's complexity gap")
	return nil
}

// expProp55 demonstrates the combined-complexity blowup underlying
// Prop 5.5: evaluating Boolean CQs with bipartite+balanced tableaux is
// NP-complete (even against oriented-tree targets, Hell–Nešetřil), so
// the exact check grows sharply with |Q|, while acyclic queries of the
// same size evaluate in O(|D|·|Q|) via Yannakakis. Queries are random
// balanced digraphs; the database is a random oriented tree — the
// hard target family from the paper's proof.
func expProp55() error {
	rng := rand.New(rand.NewSource(11))
	db := orientedTreeDB(rng, 80)
	fmt.Printf("%6s %22s %8s %14s %14s\n", "|Q|", "kind", "holds", "exact (cyclic)", "acyclic O(D·Q)")
	for _, n := range []int{8, 12, 16} {
		g := randomBalancedDigraph(rng, n)
		q := cq.FromTableau(g, nil, nil)
		kind, err := core.ClassifyGraphTableau(q)
		if err != nil {
			return err
		}
		t0 := time.Now()
		holds := eval.NaiveBool(q, db)
		te := time.Since(t0)
		// Acyclic comparison query of the same size: a spanning
		// substructure of g (tractable class, same |Q|).
		span := spanningForest(g)
		aq := cq.FromTableau(span, nil, nil)
		t0 = time.Now()
		eval.EvalBool(aq, db)
		ta := time.Since(t0)
		fmt.Printf("%6d %22s %8v %14s %14s\n",
			n, kind, holds, te.Round(time.Microsecond), ta.Round(time.Microsecond))
	}
	fmt.Println("bipartite+balanced evaluation is NP-complete (Prop 5.5): exact cost")
	fmt.Println("grows with |Q|; same-size acyclic queries stay in O(|D|·|Q|)")
	return nil
}

// orientedTreeDB builds a random oriented tree on n nodes.
func orientedTreeDB(rng *rand.Rand, n int) *relstr.Structure {
	db := digraph.New()
	for v := 1; v < n; v++ {
		parent := rng.Intn(v)
		if rng.Intn(2) == 0 {
			digraph.AddEdge(db, parent, v)
		} else {
			digraph.AddEdge(db, v, parent)
		}
	}
	return db
}

// randomBalancedDigraph builds a random connected balanced digraph on n
// nodes: nodes get random levels, edges go from level l to l+1, and
// extra cross edges make it cyclic (every cycle stays balanced by
// construction).
func randomBalancedDigraph(rng *rand.Rand, n int) *relstr.Structure {
	g := digraph.New()
	levels := make([]int, n)
	for v := 1; v < n; v++ {
		// Attach to a previous node one level up or down.
		p := rng.Intn(v)
		if rng.Intn(2) == 0 {
			levels[v] = levels[p] + 1
			digraph.AddEdge(g, p, v)
		} else {
			levels[v] = levels[p] - 1
			digraph.AddEdge(g, v, p)
		}
	}
	// Cross edges between existing consecutive levels (cycle-creating).
	for i := 0; i < n/2; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if levels[b] == levels[a]+1 {
			digraph.AddEdge(g, a, b)
		}
	}
	return g
}

// spanningForest drops cycle-closing edges of g, keeping one edge per
// newly connected pair (an acyclic substructure of the same size
// class).
func spanningForest(g *relstr.Structure) *relstr.Structure {
	out := digraph.New()
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		if _, ok := parent[x]; !ok {
			parent[x] = x
		}
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range digraph.Edges(g) {
		ra, rb := find(e[0]), find(e[1])
		if ra != rb {
			parent[ra] = rb
			digraph.AddEdge(out, e[0], e[1])
		}
	}
	return out
}

// expDPReduction verifies the Theorem 4.12 machinery and times the
// exact-homomorphism checks at its heart.
func expDPReduction() error {
	q := gadgets.NewQStar()
	fmt.Printf("%-28s %8s %10s\n", "check", "result", "time")
	for i := 1; i <= 4; i++ {
		ti := gadgets.Ti(i)
		t0 := time.Now()
		allowed, ok := digraph.LevelRestriction(q.G, ti.G)
		if !ok {
			return fmt.Errorf("level restriction failed for T%d", i)
		}
		n := hom.CountRestricted(q.G, ti.G, nil, allowed)
		el := time.Since(t0)
		fmt.Printf("Q* → T%d unique hom            %5v %10s\n", i, n == 1, el.Round(time.Microsecond))
		if n != 1 {
			return fmt.Errorf("Q* → T%d has %d homs, want 1 (Claim 8.3)", i, n)
		}
	}
	bt := gadgets.NewBigT()
	t0 := time.Now()
	ch := gadgets.NewExtChooser21()
	lr, _ := digraph.LevelRestriction(ch.G, bt.G)
	pairs := 0
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			pre := map[int]int{ch.A: bt.TNode[i], ch.B: bt.TNode[j]}
			if hom.ExistsRestricted(ch.G, bt.G, pre, lr) {
				pairs++
			}
		}
	}
	el := time.Since(t0)
	fmt.Printf("S̃21 chooser pairs = %d (want 6)   %10s\n", pairs, el.Round(time.Microsecond))
	if pairs != 6 {
		return fmt.Errorf("extended chooser realises %d pairs, want 6 (Claim 8.9)", pairs)
	}
	fmt.Println("the reduction's gadgets behave exactly as the appendix claims")
	return nil
}

// expProp411 runs the oracle-based equivalence test on queries with
// known ground truth.
func expProp411() error {
	cases := []struct {
		src  string
		k    int
		want bool
	}{
		{"Q() :- E(x,y), E(y,z), E(z,x)", 1, false},
		{"Q() :- E(x,y), E(y,z), E(z,x)", 2, true},
		{"Q() :- E(x,y), E(x,z)", 1, true},
		{"Q() :- E(x,y), E(y,z), E(z,u), E(u,x)", 1, false},
		{"Q(x) :- E(x,y), E(y,x), E(x,z)", 1, true},
	}
	fmt.Printf("%-44s %4s %8s %8s\n", "query", "k", "oracle", "truth")
	for _, c := range cases {
		q := cq.MustParse(c.src)
		got, err := core.EquivalentToClass(q, core.TW(c.k), core.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Printf("%-44s %4d %8v %8v\n", c.src, c.k, got, c.want)
		if got != c.want {
			return fmt.Errorf("%s: oracle says %v, truth %v", c.src, got, c.want)
		}
	}
	fmt.Println("Q ⊆ A(Q) ⟺ Q is TW(k)-equivalent (Prop 4.11)")
	return nil
}

// expTight verifies the tight-approximation family of Prop 5.6.
func expTight() error {
	fmt.Printf("%4s %14s %14s %16s\n", "k", "G_k → P_{k+1}", "P_{k+1} ↛ G_k", "approx verified")
	for k := 3; k <= 5; k++ {
		gk := gadgets.NewGk(k)
		pk1 := digraph.DirectedPath(k + 1)
		fwd := hom.Exists(gk, pk1, nil)
		bwd := hom.Exists(pk1, gk, nil)
		verified := "-"
		if k == 3 {
			q := cq.FromTableau(gk, nil, nil)
			p4 := cq.MustParse("P() :- E(a,b), E(b,c), E(c,d), E(d,e)")
			ok, err := core.IsApproximation(q, p4, core.TW(1), core.Options{})
			if err != nil {
				return err
			}
			verified = fmt.Sprint(ok)
			if !ok {
				return fmt.Errorf("P4 not an approximation of G_3")
			}
		}
		fmt.Printf("%4d %14v %14v %16s\n", k, fwd, !bwd, verified)
		if !fwd || bwd {
			return fmt.Errorf("k=%d: gap endpoints wrong", k)
		}
	}
	fmt.Println("the path P_{k+1} tightly approximates G_k (Prop 5.6; exact check at k=3)")
	return nil
}

// expCor43 measures the single-exponential cost of computing
// approximations as the query grows.
func expCor43() error {
	fmt.Printf("%8s %8s %12s\n", "n vars", "#approx", "time")
	for n := 3; n <= 7; n++ {
		q := workload.CycleQuery(n)
		t0 := time.Now()
		apps, err := core.Approximations(q, core.TW(1), core.DefaultOptions())
		if err != nil {
			return err
		}
		el := time.Since(t0)
		fmt.Printf("%8d %8d %12s\n", n, len(apps), el.Round(time.Microsecond))
	}
	fmt.Println("cost grows with Bell(n) ~ 2^{O(n log n)} — the single-exponential bound of Cor 4.3")
	return nil
}

// expHigherArity verifies the §5.3 constructions.
func expHigherArity() error {
	// Prop 5.15: the almost-triangle.
	q := cq.MustParse("Q() :- R(x1,x2,x3), R(x2,x1,x4), R(x4,x3,x1)")
	strong := cq.MustParse("Q'() :- R(x,y,y), R(y,x,y), R(y,y,x)")
	ok, err := core.IsApproximation(q, strong, core.TW(1), core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("almost-triangle %v\n", q)
	fmt.Printf("  strong TW(1) approximation %v: %v (same joins: %v)\n",
		strong, ok, hom.Minimize(q).NumJoins() == hom.Minimize(strong).NumJoins())
	if !ok {
		return fmt.Errorf("Prop 5.15 approximation rejected")
	}
	// Contrast with graphs: a Boolean graph query of maximum treewidth
	// has only the trivial strong approximation.
	tri := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	apps, err := core.Approximations(tri, core.TW(1), core.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Printf("graph contrast: C3 has %d TW(1)-approximation(s), trivial: %v\n",
		len(apps), core.IsTrivialQuery(apps[0]))
	return nil
}

// expCor65 records the sizes of hypergraph-based approximations against
// the polynomial bound of Claim 6.2 / Cor 6.5.
func expCor65() error {
	fmt.Printf("%-10s %-8s %8s %10s %10s %12s\n", "query", "class", "#approx", "max vars", "bound", "time")
	for _, q := range []*cq.Query{
		workload.TernaryCycleQuery(3),
		cq.MustParse("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)"),
	} {
		n := q.NumVars()
		m := 3                       // max arity
		bound := n + (m-1)*(m-1)*n*n // n + (m−1)²·n^{m−1}
		for _, c := range []core.Class{core.AC(), core.HTW(2)} {
			t0 := time.Now()
			apps, err := core.Approximations(q, c, core.DefaultOptions())
			if err != nil {
				return err
			}
			el := time.Since(t0)
			maxVars := 0
			for _, a := range apps {
				if a.NumVars() > maxVars {
					maxVars = a.NumVars()
				}
			}
			fmt.Printf("%-10s %-8s %8d %10d %10d %12s\n",
				q.Name, c.Name(), len(apps), maxVars, bound, el.Round(time.Microsecond))
		}
	}
	fmt.Println("approximation sizes stay within the polynomial bound of Claim 6.2")
	return nil
}
