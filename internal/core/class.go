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
// The built-in classes test a tableau on its hypergraph, one edge per
// atom (flatClass), at any size; their Contains flattens its input into
// that form. The search hands any other implementation each candidate
// as a built Structure, through Contains.
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

// flatClass is implemented by the built-in classes, whose membership
// depends on the query's (hyper)graph alone: containsFlat tests the
// tableau given as its hypergraph.
type flatClass interface {
	containsFlat(h hypergraph.Hypergraph) bool
}

// hypergraphOf returns the hypergraph of s: one edge per fact, over its
// elements renumbered densely.
func hypergraphOf(s *relstr.Structure) hypergraph.Hypergraph {
	d := hom.DenseOf(s)
	w := hypergraph.Words(len(d.Vals))
	return hypergraph.Hypergraph{N: len(d.Vals), W: w, E: edgeSets(nil, d, w)}
}

// Treewidth returns the treewidth of the CQ with tableau s (of its
// Gaifman graph G(Q)). A forest answers at any size; past that, the
// exact computation is limited to tw.MaxExactN elements, and panics
// beyond.
func Treewidth(s *relstr.Structure) int { return tw.Gaifman(hypergraphOf(s)).Treewidth() }

// HypertreeWidth returns the hypertree width of the CQ with tableau s.
func HypertreeWidth(s *relstr.Structure) int { return htw.Width(hypergraphOf(s)) }

// twClass is TW(k): queries whose Gaifman graph has treewidth ≤ k.
type twClass struct{ k int }

func (c twClass) Name() string                              { return fmt.Sprintf("TW(%d)", c.k) }
func (c twClass) Contains(s *relstr.Structure) bool         { return c.containsFlat(hypergraphOf(s)) }
func (c twClass) GraphBased() bool                          { return true }
func (c twClass) containsFlat(h hypergraph.Hypergraph) bool { return tw.AtMost(h, c.k) }

// TW returns the graph-based class of treewidth-≤ k queries.
func TW(k int) Class {
	if k < 1 {
		panic("core: TW(k) requires k ≥ 1")
	}
	return twClass{k}
}

// acClass is AC: α-acyclic queries (hypertree width 1).
type acClass struct{}

func (acClass) Name() string                              { return "AC" }
func (c acClass) Contains(s *relstr.Structure) bool       { return c.containsFlat(hypergraphOf(s)) }
func (acClass) GraphBased() bool                          { return false }
func (acClass) containsFlat(h hypergraph.Hypergraph) bool { return h.Acyclic() }

// AC returns the hypergraph-based class of acyclic queries.
func AC() Class { return acClass{} }

// htwClass is HTW(k): hypertree width ≤ k.
type htwClass struct{ k int }

func (c htwClass) Name() string                              { return fmt.Sprintf("HTW(%d)", c.k) }
func (c htwClass) Contains(s *relstr.Structure) bool         { return c.containsFlat(hypergraphOf(s)) }
func (c htwClass) GraphBased() bool                          { return false }
func (c htwClass) containsFlat(h hypergraph.Hypergraph) bool { return htw.AtMost(h, c.k) }

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

func (c ghtwClass) Name() string                              { return fmt.Sprintf("GHTW(%d)", c.k) }
func (c ghtwClass) Contains(s *relstr.Structure) bool         { return c.containsFlat(hypergraphOf(s)) }
func (c ghtwClass) GraphBased() bool                          { return false }
func (c ghtwClass) containsFlat(h hypergraph.Hypergraph) bool { return htw.GHTWAtMost(h, c.k) }

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
