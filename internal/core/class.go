// Package core implements the paper's primary contribution: computing
// C-approximations of conjunctive queries for the tractable classes C
// of Sections 4–6 — bounded treewidth TW(k) (graph-based), acyclic AC,
// and bounded (generalized) hypertree width HTW(k)/GHTW(k)
// (hypergraph-based).
//
// A C-approximation of Q (Definition 3.1) is a query Q' ∈ C with
// Q' ⊆ Q such that no Q” ∈ C satisfies Q' ⊂ Q” ⊆ Q. In tableau
// terms, approximations are the →-minimal tableaux of C-queries among
// the homomorphic images of T_Q (Theorem 4.1), extended — for the
// hypergraph-based classes, which are not closed under subhypergraphs —
// with bounded sets of additional atoms (Theorem 6.1 / Claim 6.2).
package core

import (
	"fmt"
	"sort"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/htw"
	"cqapprox/internal/hypergraph"
	"cqapprox/internal/relstr"
	"cqapprox/internal/tw"
)

// Class is a class of conjunctive queries defined through a property of
// their tableaux. Implementations must be decidable membership tests.
//
// The built-in classes test the search's candidates on their flat form,
// one vertex bitmask per atom, and their Contains flattens its input
// into that form. The search hands any other implementation each
// candidate as a built Structure, through Contains.
type Class interface {
	// Name is a short identifier such as "TW(1)" or "AC". Within one
	// concrete implementation type, Name must uniquely identify the
	// class's semantics (any parameters affecting Contains must appear
	// in it): the engine's prepared-query cache keys entries by
	// concrete type plus Name.
	Name() string
	// Contains reports whether the CQ with the given tableau belongs to
	// the class.
	Contains(s *relstr.Structure) bool
	// GraphBased reports whether the class is defined through the query
	// graph G(Q) and closed under subgraphs, in which case homomorphic
	// images (quotients) of T_Q form a complete candidate space for
	// approximations (Theorem 4.1). Hypergraph-based classes return
	// false and additionally search bounded atom extensions
	// (Theorem 6.1).
	GraphBased() bool
}

// maskClass is implemented by the built-in classes, whose membership
// depends on the query's (hyper)graph alone. containsMasks tests the
// tableau given as one vertex bitmask per atom over the vertices
// 0…n−1, n ≤ 64.
type maskClass interface {
	containsMasks(n int, edges []uint64) bool
}

// containsStructure is a built-in class's Contains: s flattened to
// edge masks over its elements renumbered densely, or past 64 elements,
// where masks do not reach, the general test.
func containsStructure(c maskClass, s *relstr.Structure, general func() bool) bool {
	d := hom.DenseOf(s)
	if len(d.Vals) > 64 {
		return general()
	}
	return c.containsMasks(len(d.Vals), edgeMasks(nil, d))
}

// twClass is TW(k): queries whose Gaifman graph has treewidth ≤ k.
type twClass struct{ k int }

func (c twClass) Name() string { return fmt.Sprintf("TW(%d)", c.k) }
func (c twClass) Contains(s *relstr.Structure) bool {
	return containsStructure(c, s, func() bool { return tw.StructureTreewidthAtMost(s, c.k) })
}
func (c twClass) GraphBased() bool { return true }
func (c twClass) containsMasks(n int, edges []uint64) bool {
	return tw.FromMasks(n, edges).TreewidthAtMost(c.k)
}

// TW returns the graph-based class of treewidth-≤ k queries.
func TW(k int) Class {
	if k < 1 {
		panic("core: TW(k) requires k ≥ 1")
	}
	return twClass{k}
}

// acClass is AC: α-acyclic queries (hypertree width 1).
type acClass struct{}

func (acClass) Name() string { return "AC" }
func (c acClass) Contains(s *relstr.Structure) bool {
	return containsStructure(c, s, func() bool { return hypergraph.FromStructure(s).IsAcyclic() })
}
func (acClass) GraphBased() bool                         { return false }
func (acClass) containsMasks(_ int, edges []uint64) bool { return hypergraph.AcyclicMasks(edges) }

// AC returns the hypergraph-based class of acyclic queries.
func AC() Class { return acClass{} }

// htwClass is HTW(k): hypertree width ≤ k.
type htwClass struct{ k int }

func (c htwClass) Name() string { return fmt.Sprintf("HTW(%d)", c.k) }
func (c htwClass) Contains(s *relstr.Structure) bool {
	return containsStructure(c, s, func() bool { return htw.StructureAtMost(s, c.k) })
}
func (c htwClass) GraphBased() bool { return false }
func (c htwClass) containsMasks(_ int, edges []uint64) bool {
	return htw.AtMost(hypergraph.FromMasks(edges), c.k)
}

// HTW returns the hypergraph-based class of hypertree-width-≤ k
// queries. HTW(1) coincides with AC.
func HTW(k int) Class {
	if k < 1 {
		panic("core: HTW(k) requires k ≥ 1")
	}
	return htwClass{k}
}

// ghtwClass is GHTW(k): generalized hypertree width ≤ k.
type ghtwClass struct{ k int }

func (c ghtwClass) Name() string { return fmt.Sprintf("GHTW(%d)", c.k) }
func (c ghtwClass) Contains(s *relstr.Structure) bool {
	return containsStructure(c, s, func() bool { return htw.GHTWAtMost(hypergraph.FromStructure(s), c.k) })
}
func (c ghtwClass) GraphBased() bool { return false }
func (c ghtwClass) containsMasks(_ int, edges []uint64) bool {
	return htw.GHTWAtMost(hypergraph.FromMasks(edges), c.k)
}

// GHTW returns the hypergraph-based class of generalized-hypertree-
// width-≤ k queries.
func GHTW(k int) Class {
	if k < 1 {
		panic("core: GHTW(k) requires k ≥ 1")
	}
	return ghtwClass{k}
}

// Trivial returns the paper's Q_trivial adapted to q: a single variable
// x, one atom R(x,…,x) per relation symbol used by q, and head
// (x,…,x) with q's head arity. It belongs to every TW(k), AC and
// HTW(k), and is contained in every CQ over the same schema with the
// same head arity (Section 4.1).
func Trivial(q *cq.Query) *cq.Query {
	out := &cq.Query{Name: q.Name + "_trivial"}
	schema := q.Schema()
	var rels []string
	for r := range schema {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	for _, r := range rels {
		args := make([]string, schema[r])
		for i := range args {
			args[i] = "x"
		}
		out.Atoms = append(out.Atoms, cq.Atom{Rel: r, Args: args})
	}
	for range q.Head {
		out.Head = append(out.Head, "x")
	}
	return out
}

// TrivialBipartite returns the paper's Q_triv2 for Boolean graph
// queries: E(x,y), E(y,x), whose tableau is K_2^↔ (Section 5.1.1).
func TrivialBipartite() *cq.Query {
	return cq.MustParse("Qtriv2() :- E(x,y), E(y,x)")
}

// TrivialK returns Q_triv(m) for Boolean graph queries: the query whose
// tableau is K_m^↔ (Section 5.2, with m = k+1 for TW(k)).
func TrivialK(m int) *cq.Query {
	out := &cq.Query{Name: fmt.Sprintf("Qtriv%d", m)}
	name := func(i int) string { return fmt.Sprintf("x%d", i) }
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i != j {
				out.Atoms = append(out.Atoms, cq.Atom{Rel: "E", Args: []string{name(i), name(j)}})
			}
		}
	}
	return out
}

// IsTrivialQuery reports whether q is equivalent to Trivial(q) — i.e.
// q's approximation carries no information beyond the schema
// (Theorem 5.1, first case).
func IsTrivialQuery(q *cq.Query) bool {
	return hom.Equivalent(q, Trivial(q))
}
