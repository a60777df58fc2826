package gadgets

import (
	"strings"
	"testing"

	"cqapprox/internal/core"
	"cqapprox/internal/cq"
	"cqapprox/internal/digraph"
	"cqapprox/internal/hom"
	"cqapprox/internal/relstr"
)

func TestGkMapsToPathK1(t *testing.T) {
	for k := 3; k <= 6; k++ {
		gk := NewGk(k)
		pk1 := digraph.DirectedPath(k + 1)
		if !hom.Exists(gk, pk1, nil) {
			t.Errorf("G_%d ↛ P_%d", k, k+1)
		}
		if hom.Exists(pk1, gk, nil) {
			t.Errorf("P_%d → G_%d should not hold (the approximation is strict)", k+1, k)
		}
		if digraph.IsForestLike(gk) {
			t.Errorf("G_%d should be cyclic", k)
		}
		if !digraph.IsBalanced(gk) || !digraph.IsBipartite(gk) {
			t.Errorf("G_%d should be bipartite and balanced (Theorem 5.1 third case)", k)
		}
	}
}

// For k = 3 the quotient space is enumerable, so the claim "P_{k+1} is
// a (tight) acyclic approximation of G_k" is verified exactly through
// the decision procedure.
func TestGkPathIsAcyclicApproximation(t *testing.T) {
	gk := NewGk(3)
	q := cq.FromTableau(gk, nil, nil)
	p4 := cq.MustParse("P() :- E(a,b), E(b,c), E(c,d), E(d,e)")
	ok, err := core.IsApproximation(q, p4, core.TW(1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("P4 should be an acyclic approximation of G_3's query")
	}
}

// Tightness within the quotient space: no quotient X of G_3 sits
// strictly between G_3 and P_4 (a bounded check of Prop 5.6's gap).
func TestGkGapWithinQuotientSpace(t *testing.T) {
	gk := NewGk(3)
	q := cq.FromTableau(gk, nil, nil)
	p4q := cq.MustParse("P() :- E(a,b), E(b,c), E(c,d), E(d,e)")
	qt := q.Tableau()
	dom := qt.S.Domain()
	found := false
	quotientMaps(dom, func(f func(int) int) bool {
		img := qt.S.Map(f)
		x := cq.FromTableau(img, nil, nil)
		// Strictly between: P4 ⊂ X ⊂ Q.
		if hom.Contained(x, q) && !hom.Contained(q, x) && hom.Contained(p4q, x) && !hom.Contained(x, p4q) {
			found = true
			return false
		}
		return true
	})
	if found {
		t.Fatal("found a quotient strictly between G_3 and P_4 (gap violated)")
	}
}

// The paper constructs G_k as core(F_k × P_{k+1}) where F_k is the
// dual of P_{k+1} — by Gallai–Hasse–Roy–Vitaver the transitive
// tournament TT_{k+1} — and "omits the tedious calculations". We run
// them: the core of TT_{k+1} × P_{k+1} is isomorphic to G_k.
func TestGkIsCoreOfDualProduct(t *testing.T) {
	for k := 3; k <= 4; k++ {
		tt := digraph.TransitiveTournament(k + 1)
		path := digraph.DirectedPath(k + 1)
		prod, _ := digraph.Product(tt, path)
		coreP, _ := hom.Core(prod, nil)
		gk := NewGk(k)
		// Equal keys from the exact search (the c| prefix) mean
		// isomorphic.
		key := relstr.CanonicalKey(coreP, nil)
		if !strings.HasPrefix(key, "c|") {
			t.Fatalf("k=%d: key %q is not exact", k, key)
		}
		if key != relstr.CanonicalKey(gk, nil) {
			t.Fatalf("k=%d: core(TT_%d × P_%d) has %d nodes/%d edges, G_%d has %d/%d — not isomorphic",
				k, k+1, k+1, coreP.DomainSize(), coreP.NumFacts(), k, gk.DomainSize(), gk.NumFacts())
		}
	}
}

// Gap property via duality (Prop 5.6 / Nešetřil–Tardif): for every
// digraph H, either H → F_k (the dual) or P_{k+1} → H. If some H sat
// strictly between G_k and P_{k+1}, then P_{k+1} ↛ H (else H ≡ P_{k+1}
// from below... the duality forces H → F_k, and combined with
// H → P_{k+1} it maps to the product, hence to its core G_k — so H is
// equivalent to G_k, not strictly between. We spot-check the duality
// split on random digraphs mapping to P_{k+1}.
func TestGkGapViaDuality(t *testing.T) {
	k := 3
	tt := digraph.TransitiveTournament(k + 1)
	path := digraph.DirectedPath(k + 1)
	gk := NewGk(k)
	// Candidates: quotients of G_k (all mapping to P_4 trivially... only
	// those that still admit G_k → X → P_4).
	qt := gk.Domain()
	count := 0
	quotientMaps(qt, func(f func(int) int) bool {
		x := gk.Map(f)
		if !hom.Exists(x, path, nil) {
			return true
		}
		count++
		// Duality: X → P_4 means X has no directed path of 4 edges...
		// exactly one of X → TT_4, P_4 → X holds.
		toDual := hom.Exists(x, tt, nil)
		fromPath := hom.Exists(path, x, nil)
		if toDual == fromPath {
			t.Fatalf("duality violated on quotient %v", x)
		}
		// If P_4 ↛ X, then X → TT_4 and X → P_4, so X → core(product) =
		// G_k: X is below G_k, not strictly between.
		if !fromPath {
			if !hom.Exists(x, gk, nil) {
				t.Fatalf("quotient below the gap does not map back to G_k: %v", x)
			}
		}
		return count < 2000 // bound the sweep
	})
	if count == 0 {
		t.Fatal("no quotients mapped to the path")
	}
}

func TestExample57UniqueP4Approximation(t *testing.T) {
	if testing.Short() {
		t.Skip("8-variable quotient space")
	}
	g := Example57()
	q := cq.FromTableau(g, nil, nil)
	apps, err := core.Approximations(q, core.TW(1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("Example 5.7 should have a unique acyclic approximation, got %v", apps)
	}
	p4 := cq.MustParse("P() :- E(a,b), E(b,c), E(c,d), E(d,e)")
	if !hom.Equivalent(apps[0], p4) {
		t.Fatalf("approximation = %v, want ≡ P4", apps[0])
	}
}
