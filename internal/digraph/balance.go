package digraph

import "cqapprox/internal/relstr"

// Levels computes, for a balanced digraph, the level of every node:
// the maximum net length of an oriented path terminating at the node
// (Hell–Nešetřil; used in Prop 4.4 and Theorem 4.12 of the paper). It
// returns ok=false when the digraph is not balanced (some oriented
// cycle has non-zero net length), in which case levels are undefined.
//
// Within each connected component, a potential φ with φ(v) = φ(u)+1 for
// every edge u→v exists iff the component is balanced; the level is
// φ normalised so the component minimum is 0.
func Levels(s *relstr.Structure) (map[int]int, bool) {
	phi := map[int]int{}
	// Directed adjacency with signs over the underlying graph.
	type arc struct {
		to    int
		delta int
	}
	adj := map[int][]arc{}
	for _, t := range s.Tuples(EdgeRel) {
		if t[0] == t[1] {
			return nil, false // a loop is an unbalanced cycle of net length 1
		}
		adj[t[0]] = append(adj[t[0]], arc{t[1], +1})
		adj[t[1]] = append(adj[t[1]], arc{t[0], -1})
	}
	for _, start := range s.Domain() {
		if _, done := phi[start]; done {
			continue
		}
		phi[start] = 0
		queue := []int{start}
		comp := []int{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, a := range adj[v] {
				want := phi[v] + a.delta
				if got, done := phi[a.to]; done {
					if got != want {
						return nil, false
					}
					continue
				}
				phi[a.to] = want
				comp = append(comp, a.to)
				queue = append(queue, a.to)
			}
		}
		min := phi[start]
		for _, v := range comp {
			if phi[v] < min {
				min = phi[v]
			}
		}
		for _, v := range comp {
			phi[v] -= min
		}
	}
	return phi, true
}

// IsBalanced reports whether every oriented cycle of s has net length
// zero. Equivalently (Hell–Nešetřil), s is homomorphic to a directed
// path.
func IsBalanced(s *relstr.Structure) bool {
	_, ok := Levels(s)
	return ok
}

// Height returns the height of a balanced digraph: the maximum level.
// It panics if s is not balanced.
func Height(s *relstr.Structure) int {
	lv, ok := Levels(s)
	if !ok {
		panic("digraph: Height of unbalanced digraph")
	}
	h := 0
	for _, l := range lv {
		if l > h {
			h = l
		}
	}
	return h
}
