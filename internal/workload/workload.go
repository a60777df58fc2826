// Package workload generates the synthetic databases and query families
// used by the benchmark harness and the examples. The paper is a theory
// paper; these generators stand in for the "very large databases" its
// introduction motivates (see DESIGN.md §5), exercising the same code
// paths: evaluation engines and approximation computation.
package workload

import (
	"fmt"
	"math/rand"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// RandomDigraph returns a uniform random digraph database with n nodes
// and m edges (duplicates collapse, loops allowed).
func RandomDigraph(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	for i := 0; i < m; i++ {
		db.Add("E", rng.Intn(n), rng.Intn(n))
	}
	return db
}

// RandomSocial returns a digraph shaped like a follower graph: average
// out-degree avgDeg with preferential attachment, and a fraction
// reciprocity of edges reciprocated (reciprocated edges are what the
// 2-cycle approximations of unbalanced cyclic queries match).
func RandomSocial(rng *rand.Rand, n, avgDeg int, reciprocity float64) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	targets := make([]int, 0, n*avgDeg)
	for v := 0; v < n; v++ {
		targets = append(targets, v) // every node appears at least once
	}
	for v := 0; v < n; v++ {
		for d := 0; d < avgDeg; d++ {
			var w int
			if rng.Float64() < 0.5 || len(targets) == 0 {
				w = rng.Intn(n)
			} else {
				w = targets[rng.Intn(len(targets))] // preferential attachment
			}
			if w == v {
				continue
			}
			db.Add("E", v, w)
			targets = append(targets, w)
			if rng.Float64() < reciprocity {
				db.Add("E", w, v)
			}
		}
	}
	return db
}

// LayeredDAG returns a balanced digraph database: `layers` layers of
// `width` nodes, with edges only from layer i to layer i+1 (so every
// oriented cycle is balanced, and level-based reasoning applies).
func LayeredDAG(rng *rand.Rand, layers, width, edgesPerNode int) *relstr.Structure {
	db := relstr.New()
	db.Declare("E", 2)
	at := func(l, i int) int { return l*width + i }
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for e := 0; e < edgesPerNode; e++ {
				db.Add("E", at(l, i), at(l+1, rng.Intn(width)))
			}
		}
	}
	return db
}

// RandomTernary returns a random database over one ternary relation R.
func RandomTernary(rng *rand.Rand, n, m int) *relstr.Structure {
	db := relstr.New()
	db.Declare("R", 3)
	for i := 0; i < m; i++ {
		db.Add("R", rng.Intn(n), rng.Intn(n), rng.Intn(n))
	}
	return db
}

// CycleQuery returns the Boolean directed n-cycle query
// Q() :- E(x0,x1), …, E(x_{n-1},x0).
func CycleQuery(n int) *cq.Query {
	q := &cq.Query{Name: fmt.Sprintf("C%d", n)}
	v := func(i int) string { return fmt.Sprintf("x%d", i%n) }
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{v(i), v(i + 1)}})
	}
	return q
}

// CycleQueryFree returns the n-cycle query with the first variable
// free: Q(x0) :- E(x0,x1), …, E(x_{n-1},x0).
func CycleQueryFree(n int) *cq.Query {
	q := CycleQuery(n)
	q.Name = fmt.Sprintf("C%d(x)", n)
	q.Head = []string{"x0"}
	return q
}

// ChordedCycleQuery returns the n-cycle with a chord from x0 to x_{n/2}
// (treewidth 2, denser than the plain cycle).
func ChordedCycleQuery(n int) *cq.Query {
	q := CycleQuery(n)
	q.Name = fmt.Sprintf("C%d+chord", n)
	q.Atoms = append(q.Atoms, cq.Atom{
		Rel:  "E",
		Args: []string{"x0", fmt.Sprintf("x%d", n/2)},
	})
	return q
}

// ChainQuery returns the n-edge path query with the first endpoint
// free: Q(x0) :- E(x0,x1), …, E(x_{n-1},x_n). Acyclic; the canonical
// workload of the E19 indexed-runtime benchmarks (a single free
// variable keeps the output linear so the benchmarks measure join
// work, not result materialisation).
func ChainQuery(n int) *cq.Query {
	q := &cq.Query{Name: fmt.Sprintf("Chain%d", n)}
	v := func(i int) string { return fmt.Sprintf("x%d", i) }
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{v(i), v(i + 1)}})
	}
	q.Head = []string{v(0)}
	return q
}

// StarQuery returns the k-leaf star query with the center free:
// Q(c) :- R1(c,l1), …, Rk(c,lk). Acyclic, with every atom joined on
// the same variable — the high-fan-in shape of the join index. The
// leaves use distinct relation symbols so the query is its own core
// (a star over one symbol would minimize to a single atom).
func StarQuery(k int) *cq.Query {
	q := &cq.Query{Name: fmt.Sprintf("Star%d", k), Head: []string{"c"}}
	for i := 1; i <= k; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{
			Rel:  fmt.Sprintf("R%d", i),
			Args: []string{"c", fmt.Sprintf("l%d", i)},
		})
	}
	return q
}

// TernaryCycleQuery returns the Example 6.6 family generalised to n
// atoms: Q() :- R(x0,y0,x1), R(x1,y1,x2), …, R(x_{n-1},y_{n-1},x0).
func TernaryCycleQuery(n int) *cq.Query {
	q := &cq.Query{Name: fmt.Sprintf("T%d", n)}
	x := func(i int) string { return fmt.Sprintf("x%d", i%n) }
	y := func(i int) string { return fmt.Sprintf("y%d", i) }
	for i := 0; i < n; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "R", Args: []string{x(i), y(i), x(i + 1)}})
	}
	return q
}

// GridQuery returns the r×c grid query over E (treewidth min(r,c)).
func GridQuery(r, c int) *cq.Query {
	q := &cq.Query{Name: fmt.Sprintf("Grid%dx%d", r, c)}
	v := func(i, j int) string { return fmt.Sprintf("g%d_%d", i, j) }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{v(i, j), v(i, j+1)}})
			}
			if i+1 < r {
				q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{v(i, j), v(i+1, j)}})
			}
		}
	}
	return q
}

// RandomGraphQuery returns a random Boolean query over E with the given
// number of variables and atoms (connected-ish: each atom after the
// first reuses an existing variable).
func RandomGraphQuery(rng *rand.Rand, vars, atoms int) *cq.Query {
	q := &cq.Query{Name: "R"}
	names := make([]string, vars)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	used := []string{names[0]}
	pick := func() string {
		if len(used) == 0 || rng.Intn(2) == 0 {
			v := names[rng.Intn(vars)]
			used = append(used, v)
			return v
		}
		return used[rng.Intn(len(used))]
	}
	for i := 0; i < atoms; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: "E", Args: []string{pick(), pick()}})
	}
	return q
}

// EvalBenchCase is one workload of the E19 indexed-runtime benchmark
// suite: a query (prepared exactly, or approximated into TW(1) when
// Exact is false) evaluated warm over databases of the given sizes.
type EvalBenchCase struct {
	Name  string
	Query *cq.Query
	Exact bool
	Sizes []int
}

// EvalBenchSuite returns the E19 workloads. The names and sizes are
// load-bearing: BenchmarkIndexedJoin sub-benchmark names derive from
// them, and the committed BENCH_eval.json baseline (the CI regression
// gate) is keyed by those names.
func EvalBenchSuite() []EvalBenchCase {
	sizes := []int{300, 1000, 3000}
	// The chain runs Boolean: with an interior variable free the answer
	// pair sets grow quadratically in |D| and the benchmark would
	// measure output materialisation instead of join work.
	chain := ChainQuery(6)
	chain.Head = nil
	return []EvalBenchCase{
		{Name: "chain6", Query: chain, Exact: true, Sizes: sizes},
		{Name: "star5", Query: StarQuery(5), Exact: true, Sizes: sizes},
		{Name: "cycle4", Query: CycleQueryFree(4), Exact: false, Sizes: sizes},
	}
}

// FullChainQuery returns the n-edge path query with every variable
// free: Q(x0,…,xn) :- E(x0,x1), …, E(x_{n-1},x_n). The answer set is
// the full join — the output regime where counting via the
// multiplicity DP wins by the answer count itself, since evaluation
// must materialize every tuple and counting materializes none.
func FullChainQuery(n int) *cq.Query {
	q := ChainQuery(n)
	q.Name = fmt.Sprintf("FullChain%d", n)
	q.Head = q.Head[:0]
	for i := 0; i <= n; i++ {
		q.Head = append(q.Head, fmt.Sprintf("x%d", i))
	}
	return q
}

// FullStarQuery returns the k-leaf star query with the center and all
// leaves free — the full join of the star (see FullChainQuery).
func FullStarQuery(k int) *cq.Query {
	q := StarQuery(k)
	q.Name = fmt.Sprintf("FullStar%d", k)
	for i := 1; i <= k; i++ {
		q.Head = append(q.Head, fmt.Sprintf("l%d", i))
	}
	return q
}

// CountBenchSuite returns the E22 counting workloads: full-join heads
// (where exact counting avoids materializing hundreds of thousands of
// answers) plus the free cycle (counting through its TW(1)
// approximation). Shares EvalBenchDB and the E19 sizes; the names key
// the BenchmarkCount entries in BENCH_eval.json like EvalBenchSuite's
// key BenchmarkIndexedJoin.
func CountBenchSuite() []EvalBenchCase {
	sizes := []int{300, 1000, 3000}
	return []EvalBenchCase{
		{Name: "chain3-full", Query: FullChainQuery(3), Exact: true, Sizes: sizes},
		{Name: "star5-full", Query: FullStarQuery(5), Exact: true, Sizes: sizes},
		{Name: "cycle4-free", Query: CycleQueryFree(4), Exact: false, Sizes: sizes},
	}
}

// EvalBenchDB returns the deterministic database the E19 benchmarks
// evaluate against at size n: a social graph under E (chain/cycle
// workloads) plus five follower graphs R1…R5 over the same nodes (the
// star workload's distinct leaf relations).
func EvalBenchDB(n int) *relstr.Structure {
	db := RandomSocial(rand.New(rand.NewSource(42)), n, 6, 0.3)
	for i := 1; i <= 5; i++ {
		ri := RandomSocial(rand.New(rand.NewSource(int64(42+i))), n, 3, 0.3)
		name := fmt.Sprintf("R%d", i)
		db.Declare(name, 2)
		for _, t := range ri.Tuples("E") {
			db.Add(name, t...)
		}
	}
	return db
}

// LeafChainQuery returns Q(x,z) :- H1(x,h), H2(h,z), L(h,y0), …,
// L(h,y{k-1}) with H1, H2 and L named h1, h2 and leaf: two head atoms
// joined at h, and k existential leaves hanging off h. Every leaf is
// redundant, so minimizing the query folds them, but a plan of the
// query as written must not pay for them either: a search that binds
// the leaves before the head atoms visits |L|^k bindings for the
// answers of the two head atoms alone. The names decide how the atoms
// sort in the tableau, which is the order GYO reads them in.
func LeafChainQuery(k int, h1, h2, leaf string) *cq.Query {
	q := &cq.Query{Name: "Q", Head: []string{"x", "z"}, Atoms: []cq.Atom{
		{Rel: h1, Args: []string{"x", "h"}},
		{Rel: h2, Args: []string{"h", "z"}},
	}}
	for i := 0; i < k; i++ {
		q.Atoms = append(q.Atoms, cq.Atom{Rel: leaf, Args: []string{"h", fmt.Sprintf("y%d", i)}})
	}
	return q
}

// LeafChainDB returns the database of LeafChainQuery with the same
// names: h1(17,0), h2(0,1…16) and leaf(0,1…16), on which the query has
// the 16 answers (17, z) for z in 1…16.
func LeafChainDB(h1, h2, leaf string) *relstr.Structure {
	db := relstr.New()
	db.Add(h1, 17, 0)
	for z := 1; z <= 16; z++ {
		db.Add(h2, 0, z)
		db.Add(leaf, 0, z)
	}
	return db
}

// ClusterQuerySuite returns the fact-and-dimension queries shaped for
// the sharded cluster: each query references the (large, partitioned)
// fact relation E exactly once, with the small dimension relations
// R1/R2 replicated to every shard — so a cluster coordinator scatters
// instead of falling back to its full copy. The first query's head
// covers both arguments of its E atom, so per-shard exact counts sum.
func ClusterQuerySuite() []*cq.Query {
	return []*cq.Query{
		cq.MustParse("Qfact(x,y) :- E(x,y), R1(x,u), R2(y,v)"),
		cq.MustParse("Qout(x) :- E(x,y), R1(y,u)"),
		cq.MustParse("Qedge(x,y) :- E(x,y)"),
	}
}

// ClusterBenchDB returns the deterministic database the cluster
// benchmarks shard at size n: a social graph under E (the fact
// relation, ~6n+ edges — large enough to tuple-partition) plus two
// sparse follower graphs R1/R2 over a quarter of the nodes (the
// dimensions, small enough to replicate below any threshold between
// their size and E's).
func ClusterBenchDB(n int) *relstr.Structure {
	db := RandomSocial(rand.New(rand.NewSource(99)), n, 6, 0.3)
	for i := 1; i <= 2; i++ {
		ri := RandomSocial(rand.New(rand.NewSource(int64(99+i))), max(2, n/4), 2, 0.2)
		name := fmt.Sprintf("R%d", i)
		db.Declare(name, 2)
		for _, t := range ri.Tuples("E") {
			db.Add(name, t...)
		}
	}
	return db
}

// QuerySuite returns the named query suite used by the Figure 1
// experiment: a spread of cyclic queries over graphs and ternary
// relations.
func QuerySuite() []*cq.Query {
	return []*cq.Query{
		CycleQuery(3),
		CycleQuery(4),
		CycleQuery(5),
		CycleQueryFree(4),
		ChordedCycleQuery(4),
		ChordedCycleQuery(6),
		TernaryCycleQuery(3),
		GridQuery(2, 3),
	}
}
