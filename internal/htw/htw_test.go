package htw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
)

func TestAcyclicHasWidthOne(t *testing.T) {
	cases := []*hypergraph.Hypergraph{
		hypergraph.New([]int{0, 1, 2}),
		hypergraph.New([]int{0, 1}, []int{1, 2}, []int{2, 3}),
		hypergraph.New([]int{0, 1, 2}, []int{0, 1}, []int{1, 2}, []int{0, 2}),
		hypergraph.New([]int{0}, []int{0, 1}),
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
	tri := hypergraph.New([]int{0, 1}, []int{1, 2}, []int{0, 2})
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
		h := hypergraph.New(edges...)
		if Width(h) != 2 {
			t.Errorf("Width(C%d) = %d, want 2", n, Width(h))
		}
	}
}

func TestCliqueWidths(t *testing.T) {
	kn := func(n int) *hypergraph.Hypergraph {
		h := &hypergraph.Hypergraph{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				h.AddEdge([]int{i, j})
			}
		}
		return h
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
	h := hypergraph.FromStructure(q.Tableau().S)
	if AtMost(h, 1) {
		t.Fatal("ternary cycle is not acyclic")
	}
	if !AtMost(h, 2) {
		t.Fatal("ternary cycle has hypertree width 2")
	}
}

func TestGHTWLowerBoundsHTW(t *testing.T) {
	// ghw ≤ hw always.
	cases := []*hypergraph.Hypergraph{
		hypergraph.New([]int{0, 1}, []int{1, 2}, []int{0, 2}),
		hypergraph.New([]int{0, 1}, []int{1, 2}, []int{2, 3}, []int{3, 0}),
		hypergraph.New([]int{0, 1, 2}, []int{2, 3, 4}, []int{4, 5, 0}),
	}
	for i, h := range cases {
		if GHTWWidth(h) > Width(h) {
			t.Errorf("case %d: ghw %d > hw %d", i, GHTWWidth(h), Width(h))
		}
	}
}

func TestStructureHelpers(t *testing.T) {
	q := cq.MustParse("Q() :- E(x,y), E(y,z), E(z,x)")
	if StructureAtMost(q.Tableau().S, 1) {
		t.Fatal("triangle query is not acyclic")
	}
	if StructureWidth(q.Tableau().S) != 2 {
		t.Fatalf("width = %d", StructureWidth(q.Tableau().S))
	}
	acyc := cq.MustParse("Q() :- E(x,y), E(y,z)")
	if !StructureAtMost(acyc.Tableau().S, 1) {
		t.Fatal("path query is acyclic")
	}
}

func TestEdgelessAndTrivial(t *testing.T) {
	empty := &hypergraph.Hypergraph{}
	if !AtMost(empty, 1) || Width(empty) != 0 {
		t.Fatal("empty hypergraph should have width 0")
	}
	if AtMost(hypergraph.New([]int{0, 1}), 0) {
		t.Fatal("k=0 should reject nonempty hypergraphs")
	}
}

// Property: hypertree width 1 coincides with GYO acyclicity
// (Gottlob–Leone–Scarcello: hw(H)=1 ⟺ H acyclic).
func TestQuickWidthOneIffAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := &hypergraph.Hypergraph{}
		nv := 3 + rng.Intn(4)
		ne := 2 + rng.Intn(4)
		for i := 0; i < ne; i++ {
			size := 1 + rng.Intn(3)
			e := map[int]bool{}
			for len(e) < size {
				e[rng.Intn(nv)] = true
			}
			var edge []int
			for v := range e {
				edge = append(edge, v)
			}
			h.AddEdge(edge)
		}
		return h.IsAcyclic() == AtMost(h, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: width is antitone in k: AtMost(h,k) implies AtMost(h,k+1).
func TestQuickMonotoneInK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := &hypergraph.Hypergraph{}
		nv := 4 + rng.Intn(3)
		for i := 0; i < 5; i++ {
			a, b := rng.Intn(nv), rng.Intn(nv)
			if a == b {
				b = (b + 1) % nv
			}
			h.AddEdge([]int{a, b})
		}
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
		if !hypergraph.FromStructure(s).IsAcyclic() {
			return true
		}
		core, _ := hom.Core(s, nil)
		return hypergraph.FromStructure(core).IsAcyclic()
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
		h := &hypergraph.Hypergraph{}
		nv := 4 + rng.Intn(3)
		for i := 0; i < 4; i++ {
			size := 2 + rng.Intn(2)
			e := map[int]bool{}
			for len(e) < size {
				e[rng.Intn(nv)] = true
			}
			var edge []int
			for v := range e {
				edge = append(edge, v)
			}
			h.AddEdge(edge)
		}
		w := Width(h)
		// Induced subhypergraph on a random subset.
		keep := map[int]bool{}
		for _, v := range h.Vertices() {
			if rng.Intn(2) == 0 {
				keep[v] = true
			}
		}
		ind := h.Induced(keep)
		if len(ind.Edges) > 0 && Width(ind) > w {
			return false
		}
		// Edge extension with fresh vertices.
		ext := h.ExtendEdge(rng.Intn(len(h.Edges)), 100, 101)
		return Width(ext) <= w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
