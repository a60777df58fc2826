package hom

import "cqapprox/internal/relstr"

// ExistsRestricted reports whether a homomorphism from a to b extending
// pre exists in which every source element e with an entry in allowed
// maps into allowed[e]. The restriction must be sound for the intended
// use — e.g. restricting balanced digraphs to level-preserving maps is
// justified by Lemma 4.5 of the paper (homomorphisms between balanced
// digraphs of equal height preserve levels).
func ExistsRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) bool {
	ok, _ := existsCtx(nil, a, b, pre, allowed)
	return ok
}

// CountRestricted counts homomorphisms under the candidate restriction.
func CountRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) int {
	n := 0
	forEachCtx(nil, a, b, pre, allowed, func(map[int]int) bool { n++; return true })
	return n
}
