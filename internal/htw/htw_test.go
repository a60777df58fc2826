package htw

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
)

// of is the hypergraph over the vertices up to the largest one named.
func of(edges ...[]int) hypergraph.Hypergraph {
	n := 0
	for _, e := range edges {
		for _, v := range e {
			n = max(n, v+1)
		}
	}
	return hypergraph.New(n, edges...)
}

// fromStructure is the hypergraph of s: one edge per fact, over its
// elements numbered in ascending order.
func fromStructure(s *relstr.Structure) hypergraph.Hypergraph {
	id := map[int]int{}
	for i, e := range s.Domain() {
		id[e] = i
	}
	var edges [][]int
	for _, rel := range s.Relations() {
		for _, t := range s.Tuples(rel) {
			e := make([]int, len(t))
			for i, x := range t {
				e[i] = id[x]
			}
			edges = append(edges, e)
		}
	}
	return hypergraph.New(len(id), edges...)
}

func TestAcyclicHasWidthOne(t *testing.T) {
	cases := []hypergraph.Hypergraph{
		of([]int{0, 1, 2}),
		of([]int{0, 1}, []int{1, 2}, []int{2, 3}),
		of([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2}),
		of([]int{0}, []int{0, 1}),
	}
	for i, h := range cases {
		if got := Width(h); got != 1 {
			t.Errorf("case %d: Width = %d, want 1", i, got)
		}
		if !GHTWAtMost(h, 1) {
			t.Errorf("case %d: GHTW should be ≤ 1", i)
		}
	}
}

func TestTriangleWidthTwo(t *testing.T) {
	tri := of([]int{0, 1}, []int{1, 2}, []int{0, 2})
	if AtMost(tri, 1) {
		t.Fatal("triangle is not acyclic")
	}
	if !AtMost(tri, 2) {
		t.Fatal("triangle has hypertree width 2")
	}
	if Width(tri) != 2 {
		t.Fatalf("Width(triangle) = %d", Width(tri))
	}
}

func TestCyclesWidthTwo(t *testing.T) {
	for n := 4; n <= 7; n++ {
		edges := make([][]int, n)
		for i := 0; i < n; i++ {
			edges[i] = []int{i, (i + 1) % n}
		}
		h := of(edges...)
		if Width(h) != 2 {
			t.Errorf("Width(C%d) = %d, want 2", n, Width(h))
		}
	}
}

func TestCliqueWidths(t *testing.T) {
	kn := func(n int) hypergraph.Hypergraph {
		var edges [][]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, []int{i, j})
			}
		}
		return of(edges...)
	}
	// hw(K_n) = ⌈n/2⌉ (Gottlob–Leone–Scarcello).
	if got := Width(kn(4)); got != 2 {
		t.Errorf("Width(K4) = %d, want 2", got)
	}
	if got := Width(kn(5)); got != 3 {
		t.Errorf("Width(K5) = %d, want 3", got)
	}
}

func TestTernaryCycleQuery(t *testing.T) {
	q := cq.MustParse("Q() :- R(x,u,y), R(y,v,z), R(z,w,x)")
	h := fromStructure(q.Tableau().S)
	if AtMost(h, 1) {
		t.Fatal("ternary cycle is not acyclic")
	}
	if !AtMost(h, 2) {
		t.Fatal("ternary cycle has hypertree width 2")
	}
}

func TestGHTWLowerBoundsHTW(t *testing.T) {
	// ghw ≤ hw always.
	cases := []hypergraph.Hypergraph{
		of([]int{0, 1}, []int{1, 2}, []int{0, 2}),
		of([]int{0, 1}, []int{1, 2}, []int{2, 3}, []int{3, 0}),
		of([]int{0, 1, 2}, []int{2, 3, 4}, []int{4, 5, 0}),
	}
	for i, h := range cases {
		if GHTWWidth(h) > Width(h) {
			t.Errorf("case %d: ghw %d > hw %d", i, GHTWWidth(h), Width(h))
		}
	}
}

// The widths of query tableaux, through the hypergraph of a structure
// with sparse elements.
func TestStructureHelpers(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	if AtMost(fromStructure(q.Tableau().S), 1) {
		t.Fatal("triangle query is not acyclic")
	}
	if w := Width(fromStructure(q.Tableau().S)); w != 2 {
		t.Fatalf("width = %d", w)
	}
	acyc := relstr.New()
	acyc.Add("E", 10, 200)
	acyc.Add("E", 200, 3000)
	if !AtMost(fromStructure(acyc), 1) {
		t.Fatal("path query is acyclic")
	}
}

func TestEdgelessAndTrivial(t *testing.T) {
	empty := of()
	if !AtMost(empty, 1) || Width(empty) != 0 {
		t.Fatal("empty hypergraph should have width 0")
	}
	if AtMost(of([]int{0, 1}), 0) {
		t.Fatal("k=0 should reject nonempty hypergraphs")
	}
}

// Property: hypertree width 1 coincides with GYO acyclicity
// (Gottlob–Leone–Scarcello: hw(H)=1 ⟺ H acyclic).
func TestQuickWidthOneIffAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 3 + rng.Intn(4)
		ne := 2 + rng.Intn(4)
		var edges [][]int
		for i := 0; i < ne; i++ {
			edges = append(edges, rng.Perm(nv)[:1+rng.Intn(3)])
		}
		h := hypergraph.New(nv, edges...)
		return h.Acyclic() == AtMost(h, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: width is antitone in k: AtMost(h,k) implies AtMost(h,k+1).
func TestQuickMonotoneInK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(3)
		var edges [][]int
		for i := 0; i < 5; i++ {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a == b {
				b = (b + 1) % nv
			}
			edges = append(edges, []int{a, b})
		}
		h := hypergraph.New(nv, edges...)
		for k := 1; k <= 3; k++ {
			if AtMost(h, k) && !AtMost(h, k+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: cores of acyclic structures are acyclic (cores are images
// of retractions, so every covering hyperedge keeps covering its
// image). The approximation engine relies on this to return minimized
// class members.
func TestQuickCoreOfAcyclicIsAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := relstr.New()
		n := 3 + rng.Intn(4)
		for i := 0; i < 2+rng.Intn(5); i++ {
			if rng.Intn(2) == 0 {
				s.Add("E", rng.Intn(n), rng.Intn(n))
			} else {
				s.Add("R", rng.Intn(n), rng.Intn(n), rng.Intn(n))
			}
		}
		if !fromStructure(s).Acyclic() {
			return true
		}
		core, _ := hom.Core(s, nil)
		return fromStructure(core).Acyclic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property (Lemma 6.4): HTW(k) is closed under induced subhypergraphs
// and edge extensions.
func TestQuickLemma64Closure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 4 + rng.Intn(3)
		var edges [][]int
		for i := 0; i < 4; i++ {
			edges = append(edges, rng.Perm(nv)[:2+rng.Intn(2)])
		}
		w := Width(hypergraph.New(nv, edges...))
		// Induced subhypergraph on a random subset: each edge
		// intersected with it, empty intersections dropped.
		keep := rng.Perm(nv)[:rng.Intn(nv+1)]
		var ind [][]int
		for _, e := range edges {
			if e = slices.DeleteFunc(slices.Clone(e), func(v int) bool { return !slices.Contains(keep, v) }); len(e) > 0 {
				ind = append(ind, e)
			}
		}
		if len(ind) > 0 && Width(hypergraph.New(nv, ind...)) > w {
			return false
		}
		// Edge extension with the fresh vertices 100 and 101, past the
		// first word.
		i := rng.Intn(len(edges))
		edges[i] = append(slices.Clone(edges[i]), 100, 101)
		return Width(hypergraph.New(102, edges...)) <= w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
