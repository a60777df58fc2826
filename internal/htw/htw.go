// Package htw decides membership in the paper's hypergraph-based
// tractable classes HTW(k) (hypertree width ≤ k, Gottlob–Leone–
// Scarcello) and GHTW(k) (generalized hypertree width ≤ k).
//
// HTW(k) is decided by a memoised recursive search in the
// Gottlob–Leone–Scarcello normal form (the scheme behind
// opt-k-decomp/det-k-decomp): a node is a pair (component, connector);
// a candidate guard is any set S of ≤ k hyperedges; the node's bag in
// normal form is V(S) ∩ (V(component) ∪ connector). Every hypergraph of
// hypertree width ≤ k admits a decomposition in this normal form, so
// the procedure is exact and runs in polynomial time for fixed k.
//
// GHTW(k) drops the special condition; deciding ghw ≤ k is NP-complete
// for k ≥ 3 in general. GHTWAtMost performs an exact search in which
// the bag may be any subset of V(S) covering the connector — complete
// on the small hypergraphs used here (it enumerates subsets of V(S) ∩
// (V(component) ∪ connector)), exponential in k·(max edge size) in the
// worst case.
//
// The search runs on bitsets: vertex sets (guards' vertices, bags,
// connectors) in the hypergraph's flat form, components as sets of
// edge indexes, and the memo is keyed on the words of a node's
// component and connector.
package htw

import (
	"encoding/binary"
	"math/bits"

	"cqapprox/internal/hypergraph"
)

type solver struct {
	edges      []uint64 // the distinct edges, w words each
	w, m       int      // words per vertex set; number of edges
	cw         int      // words per edge set (component)
	k          int
	memo       map[string]bool
	inProgress map[string]bool
	tainted    bool // current computation consulted an in-progress node
	general    bool // GHTW mode: allow arbitrary bags ⊆ V(S)
}

func newSolver(h hypergraph.Hypergraph, k int, general bool) *solver {
	// Deduplicate edges: identical atoms do not change width.
	s := &solver{w: h.W, k: k, memo: map[string]bool{}, inProgress: map[string]bool{}, general: general}
	seen := map[string]bool{}
	for i := range h.NumEdges() {
		e := h.Edge(i)
		if k := wordsKey(e); !seen[k] {
			seen[k] = true
			s.edges = append(s.edges, e...)
			s.m++
		}
	}
	s.cw = hypergraph.Words(s.m)
	return s
}

// wordsKey renders sets of words as a map key.
func wordsKey(sets ...[]uint64) string {
	var b []byte
	for _, set := range sets {
		for _, x := range set {
			b = binary.LittleEndian.AppendUint64(b, x)
		}
	}
	return string(b)
}

func (s *solver) edge(i int) []uint64 { return s.edges[i*s.w : (i+1)*s.w] }

// decideAll decides the whole hypergraph: every edge, no connector.
func (s *solver) decideAll() bool {
	all := make([]uint64, s.cw)
	for i := 0; i < s.m; i++ {
		all[i>>6] |= 1 << uint(i&63)
	}
	return s.decide(all, make([]uint64, s.w))
}

// AtMost reports whether the hypertree width of h is at most k.
func AtMost(h hypergraph.Hypergraph, k int) bool {
	if k < 1 {
		return h.NumEdges() == 0
	}
	return newSolver(h, k, false).decideAll()
}

// GHTWAtMost reports whether the generalized hypertree width of h is at
// most k (exact bounded search; see the package comment).
func GHTWAtMost(h hypergraph.Hypergraph, k int) bool {
	if k < 1 {
		return h.NumEdges() == 0
	}
	return newSolver(h, k, true).decideAll()
}

// Width returns the exact hypertree width of h (0 for edgeless).
func Width(h hypergraph.Hypergraph) int {
	if h.NumEdges() == 0 {
		return 0
	}
	for k := 1; ; k++ {
		if AtMost(h, k) {
			return k
		}
	}
}

// GHTWWidth returns the generalized hypertree width of h.
func GHTWWidth(h hypergraph.Hypergraph) int {
	if h.NumEdges() == 0 {
		return 0
	}
	for k := 1; ; k++ {
		if GHTWAtMost(h, k) {
			return k
		}
	}
}

// decide reports whether the component comp (a set of edge indexes)
// with connector conn (a vertex set) can be decomposed within width k.
func (s *solver) decide(comp, conn []uint64) bool {
	if isEmpty(comp) {
		return true
	}
	key := wordsKey(comp, conn)
	if v, ok := s.memo[key]; ok {
		return v
	}
	// Re-entering an in-progress node means the candidate decomposition
	// nests (comp, conn) inside itself; by the standard replacement
	// argument such a decomposition can always be short-circuited, so
	// answering false here only prunes redundant shapes. The taint flag
	// prevents memoising false results that were derived under this
	// provisional answer.
	if s.inProgress[key] {
		s.tainted = true
		return false
	}
	s.inProgress[key] = true
	saved := s.tainted
	s.tainted = false
	res := s.search(comp, conn)
	delete(s.inProgress, key)
	if res || !s.tainted {
		s.memo[key] = res
	}
	s.tainted = s.tainted || saved
	return res
}

func (s *solver) search(comp, conn []uint64) bool {
	compVerts := make([]uint64, s.w)
	for ei := range members(comp) {
		or(compVerts, s.edge(ei))
	}
	// Enumerate guards: subsets S of edges, 1 ≤ |S| ≤ k, in index
	// order; vs[d] is V(S) of the guard's first d edges.
	vs := make([][]uint64, s.k+1)
	for d := range vs {
		vs[d] = make([]uint64, s.w)
	}
	var tryGuard func(start, depth int) bool
	tryGuard = func(start, depth int) bool {
		if depth > 0 && s.tryBags(vs[depth], comp, conn, compVerts) {
			return true
		}
		if depth == s.k {
			return false
		}
		for i := start; i < s.m; i++ {
			copy(vs[depth+1], vs[depth])
			or(vs[depth+1], s.edge(i))
			if tryGuard(i+1, depth+1) {
				return true
			}
		}
		return false
	}
	return tryGuard(0, 0)
}

// tryBags tests the guard whose vertices are vs at the current node,
// enumerating the admissible bags (one in HTW normal form, all subsets
// in GHTW mode) and recursing into the resulting components.
func (s *solver) tryBags(vs, comp, conn, compVerts []uint64) bool {
	// conn must be covered by V(S) in any case.
	if !subset(conn, vs) {
		return false
	}
	// Relevant vertices for the bag: V(S) ∩ (V(comp) ∪ conn).
	relevant := make([]uint64, s.w)
	for j := range relevant {
		relevant[j] = vs[j] & (compVerts[j] | conn[j])
	}
	if !s.general {
		// Normal-form bag.
		return s.tryBag(relevant, comp, conn, compVerts)
	}
	// GHTW: any bag conn ⊆ χ ⊆ relevant. Enumerate subsets of the
	// optional part (relevant minus conn), ascending.
	var optional []int
	for j, x := range relevant {
		for x &^= conn[j]; x != 0; x &= x - 1 {
			optional = append(optional, j<<6|bits.TrailingZeros64(x))
		}
	}
	if len(optional) > 20 {
		// Fall back to the maximal bag only (sound: accepts a subset of
		// true positives; never wrong when it answers true).
		return s.tryBag(relevant, comp, conn, compVerts)
	}
	bag := make([]uint64, s.w)
	for mask := (1 << len(optional)) - 1; mask >= 0; mask-- {
		copy(bag, conn)
		for i, v := range optional {
			if mask&(1<<i) != 0 {
				bag[v>>6] |= 1 << uint(v&63)
			}
		}
		if !isEmpty(bag) && s.tryBag(bag, comp, conn, compVerts) {
			return true
		}
	}
	return false
}

func (s *solver) tryBag(bag, comp, conn, compVerts []uint64) bool {
	// Progress condition: the bag must either cover some component
	// vertex beyond the connector, or fully cover some component edge;
	// otherwise the recursion would not shrink.
	progress := false
	for j, x := range bag {
		if x&compVerts[j]&^conn[j] != 0 {
			progress = true
			break
		}
	}
	if !progress {
		// Maybe an edge of comp is ⊆ conn ⊆ bag (fully covered here).
		for ei := range members(comp) {
			if subset(s.edge(ei), bag) {
				progress = true
				break
			}
		}
	}
	if !progress {
		return false
	}
	// Split comp into [bag]-components: edges connected via vertices
	// outside the bag. Edges fully inside the bag are covered here.
	for _, sub := range s.split(comp, bag) {
		// Connector of the child = V(sub) ∩ bag.
		childConn := make([]uint64, s.w)
		for ei := range members(sub) {
			or(childConn, s.edge(ei))
		}
		for j := range childConn {
			childConn[j] &= bag[j]
		}
		if !s.decide(sub, childConn) {
			return false
		}
	}
	return true
}

// split partitions the edges of comp not covered by the bag into
// components connected through shared vertices outside the bag, each
// grown from its lowest edge, in the order of their lowest edges.
func (s *solver) split(comp, bag []uint64) [][]uint64 {
	rest := make([]uint64, s.cw)
	for ei := range members(comp) {
		if !subset(s.edge(ei), bag) {
			rest[ei>>6] |= 1 << uint(ei&63)
		}
	}
	var out [][]uint64
	reach := make([]uint64, s.w) // the component's vertices
	for first := lowest(rest); first >= 0; first = lowest(rest) {
		sub := make([]uint64, s.cw)
		sub[first>>6] |= 1 << uint(first&63)
		rest[first>>6] &^= 1 << uint(first&63)
		clear(reach)
		or(reach, s.edge(first))
		for grown := true; grown; {
			grown = false
			for ei := range members(rest) {
				if meetsOutside(s.edge(ei), reach, bag) {
					sub[ei>>6] |= 1 << uint(ei&63)
					rest[ei>>6] &^= 1 << uint(ei&63)
					or(reach, s.edge(ei))
					grown = true
				}
			}
		}
		out = append(out, sub)
	}
	return out
}

// lowest returns the least element of set, or -1 if it is empty.
func lowest(set []uint64) int {
	for j, x := range set {
		if x != 0 {
			return j<<6 | bits.TrailingZeros64(x)
		}
	}
	return -1
}

// meetsOutside reports whether e and reach share a vertex outside bag.
func meetsOutside(e, reach, bag []uint64) bool {
	for j, x := range e {
		if x&reach[j]&^bag[j] != 0 {
			return true
		}
	}
	return false
}

// members yields the elements of a set, ascending, reading each word
// once: the loop body may remove the element it was given.
func members(set []uint64) func(func(int) bool) {
	return func(yield func(int) bool) {
		for j := range set {
			for x := set[j]; x != 0; x &= x - 1 {
				if !yield(j<<6 | bits.TrailingZeros64(x)) {
					return
				}
			}
		}
	}
}

func or(dst, src []uint64) {
	for j, x := range src {
		dst[j] |= x
	}
}

func subset(a, b []uint64) bool {
	for j, x := range a {
		if x&^b[j] != 0 {
			return false
		}
	}
	return true
}

func isEmpty(a []uint64) bool {
	for _, x := range a {
		if x != 0 {
			return false
		}
	}
	return true
}
