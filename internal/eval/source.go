package eval

import "cqapprox/internal/relstr"

// The storage backend of every evaluation is a *relstr.Snapshot: a
// registered database's persistent one, or a per-call structure
// wrapped without copying by relstr.Borrow. Either way an atom
// resolves to one snapshot view — its deduplicated rows plus the hash
// indexes over them — so warm registered evaluations build nothing,
// and an inline evaluation materialises only non-identity patterns.

// atomView returns the view realising atom a on sn: the assignments of
// a's distinct variables, with the view's index cache.
func atomView(sn *relstr.Snapshot, a patom) *relstr.View {
	return sn.View(a.rel, a.pat)
}

// atomPattern returns the repetition pattern of an atom's argument
// list: pattern[i] is the first position holding the same variable as
// position i (the shape relstr.Snapshot.View keys its views by).
func atomPattern(args []int) []int {
	pat := make([]int, len(args))
	for i, v := range args {
		pat[i] = i
		for j := 0; j < i; j++ {
			if args[j] == v {
				pat[i] = j
				break
			}
		}
	}
	return pat
}
