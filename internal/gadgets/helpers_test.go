package gadgets

import "cqapprox/internal/relstr"

// quotientMaps runs fn over the quotient maps induced by all set
// partitions of dom: each element maps to the first element of dom in
// its block, and elements outside dom map to themselves.
func quotientMaps(dom []int, fn func(func(int) int) bool) {
	idx := make(map[int]int, len(dom))
	for j, e := range dom {
		idx[e] = j
	}
	rep := make([]int, len(dom))
	relstr.ForEachPartition(len(dom), func(block []int, k int) bool {
		for b := range k {
			rep[b] = -1
		}
		for j, e := range dom {
			if rep[block[j]] == -1 {
				rep[block[j]] = e
			}
		}
		return fn(func(e int) int {
			if j, ok := idx[e]; ok {
				return rep[block[j]]
			}
			return e
		})
	})
}
