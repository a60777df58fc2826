package relstr

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// refine computes stable refinement colors for every domain element.
func refine(s *Structure, dist []int) map[int]string {
	dom := s.Domain()
	colors := make(map[int]string, len(dom))
	distPos := map[int][]int{}
	for i, e := range dist {
		distPos[e] = append(distPos[e], i)
	}
	for _, e := range dom {
		colors[e] = fmt.Sprintf("d%v", distPos[e])
	}
	return refineFrom(s, colors)
}

// refineFrom iterates color refinement to a fixpoint starting from the
// given initial coloring. Refinement only ever splits classes, so any
// distinction present in the initial colors is preserved.
func refineFrom(s *Structure, initial map[int]string) map[int]string {
	dom := s.Domain()
	colors := make(map[int]string, len(dom))
	for e, c := range initial {
		colors[e] = c
	}
	rels := s.Relations()
	for round := 0; round < len(dom); round++ {
		next := make(map[int]string, len(dom))
		sigs := make(map[int][]string, len(dom))
		for _, name := range rels {
			for _, t := range s.Tuples(name) {
				// For every position the element occupies, record the
				// relation, the position, and the colors of the whole
				// tuple.
				tc := make([]string, len(t))
				for i, e := range t {
					tc[i] = colors[e]
				}
				row := name + "(" + strings.Join(tc, ",") + ")"
				for i, e := range t {
					sigs[e] = append(sigs[e], fmt.Sprintf("%d@%s", i, row))
				}
			}
		}
		changed := false
		seen := map[string]bool{}
		for _, e := range dom {
			sg := sigs[e]
			sort.Strings(sg)
			next[e] = colors[e] + "|" + strings.Join(sg, ";")
			seen[next[e]] = true
		}
		// Compress colors to keep strings short.
		compress := make([]string, 0, len(seen))
		for c := range seen {
			compress = append(compress, c)
		}
		sort.Strings(compress)
		rank := make(map[string]int, len(compress))
		for i, c := range compress {
			rank[c] = i
		}
		classesBefore := countClasses(colors)
		for _, e := range dom {
			nc := fmt.Sprintf("c%d", rank[next[e]])
			if nc != colors[e] {
				changed = true
			}
			colors[e] = nc
		}
		if !changed || countClasses(colors) == classesBefore && round > 0 {
			break
		}
	}
	return colors
}

func countClasses(colors map[int]string) int {
	set := map[string]bool{}
	for _, c := range colors {
		set[c] = true
	}
	return len(set)
}

// canonLeafCap bounds the number of complete labelings the canonical-
// form search may render. The cap is compared against the total size of
// the branch tree, which is an isomorphism invariant, so two isomorphic
// structures either both complete the exact search or both fall back —
// the key stays deterministic per isomorphism class either way.
const canonLeafCap = 2048

// CanonicalKey returns a string identifying the pointed structure
// (s, dist) up to isomorphism: isomorphic inputs get equal keys, and
// equal keys imply isomorphism (the key embeds a full rendering of the
// facts under an explicit labeling). It is the cache key for prepared
// queries: tableaux of alpha-equivalent queries are isomorphic, so they
// collide exactly as they should.
//
// The search individualizes one element of the canonically chosen
// non-singleton color class at a time, re-refines, and takes the
// lexicographically least complete rendering. For inputs whose symmetry
// exceeds canonLeafCap complete labelings, it falls back to a
// deterministic heuristic labeling: keys remain sound (equal keys still
// imply isomorphism) but isomorphic variants may then get distinct
// keys, which costs at most a cache miss.
func CanonicalKey(s *Structure, dist []int) string {
	colors := refine(s, dist)
	c := &canonSearch{s: s, dist: dist}
	if c.dfs(colors) {
		return "c|" + c.best
	}
	// Fallback: order by (refinement color, element id).
	dom := s.Domain()
	sort.SliceStable(dom, func(i, j int) bool {
		if colors[dom[i]] != colors[dom[j]] {
			return colors[dom[i]] < colors[dom[j]]
		}
		return dom[i] < dom[j]
	})
	rank := make(map[int]int, len(dom))
	for i, e := range dom {
		rank[e] = i
	}
	return "h|" + renderRanked(s, dist, rank)
}

type canonSearch struct {
	s      *Structure
	dist   []int
	best   string
	leaves int
}

// dfs explores the individualization tree under colors, keeping the
// minimal rendering in c.best. It returns false once the leaf budget is
// exhausted.
func (c *canonSearch) dfs(colors map[int]string) bool {
	// Group elements by color; pick the target class canonically: the
	// smallest non-singleton class, ties broken by color string.
	byColor := map[string][]int{}
	for e, col := range colors {
		byColor[col] = append(byColor[col], e)
	}
	targetColor := ""
	for col, members := range byColor {
		if len(members) < 2 {
			continue
		}
		if targetColor == "" ||
			len(members) < len(byColor[targetColor]) ||
			len(members) == len(byColor[targetColor]) && col < targetColor {
			targetColor = col
		}
	}
	if targetColor == "" {
		// Discrete coloring: the color order is the labeling.
		c.leaves++
		if c.leaves > canonLeafCap {
			return false
		}
		type ec struct {
			e   int
			col string
		}
		elems := make([]ec, 0, len(colors))
		for e, col := range colors {
			elems = append(elems, ec{e, col})
		}
		sort.Slice(elems, func(i, j int) bool { return elems[i].col < elems[j].col })
		rank := make(map[int]int, len(elems))
		for i, x := range elems {
			rank[x.e] = i
		}
		r := renderRanked(c.s, c.dist, rank)
		if c.best == "" || r < c.best {
			c.best = r
		}
		return true
	}
	// Twins — elements whose swap maps every fact to a fact — lead to
	// subtrees that the swap maps onto each other, rendering the same
	// leaves: one element per twin class is individualized. Twin-ness
	// is an isomorphism-invariant equivalence, so the size of the
	// pruned tree is an invariant too.
	var reps []int
	for _, e := range byColor[targetColor] {
		if slices.ContainsFunc(reps, func(r int) bool { return c.twins(r, e) }) {
			continue
		}
		reps = append(reps, e)
		next := make(map[int]string, len(colors))
		for k, v := range colors {
			next[k] = v
		}
		next[e] = next[e] + "*"
		if !c.dfs(refineFrom(c.s, next)) {
			return false
		}
	}
	return true
}

// twins reports whether swapping a and b maps every fact of c.s to a
// fact. The two share a color class, so neither is distinguished.
func (c *canonSearch) twins(a, b int) bool {
	swap := func(e int) int {
		switch e {
		case a:
			return b
		case b:
			return a
		}
		return e
	}
	img := make([]int, 0, c.s.MaxArity())
	for _, name := range c.s.Relations() {
		for _, t := range c.s.Tuples(name) {
			img = img[:0]
			for _, e := range t {
				img = append(img, swap(e))
			}
			if !slices.Equal(img, t) && !c.s.Has(name, img...) {
				return false
			}
		}
	}
	return true
}

// renderRanked renders (s, dist) under the element→rank labeling:
// domain size, the distinguished tuple, and every fact with elements
// replaced by ranks, relations and tuples in sorted order. Equal
// renderings imply isomorphism (the rendering reconstructs the
// structure up to the labeling).
func renderRanked(s *Structure, dist []int, rank map[int]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d;d", len(rank))
	for _, d := range dist {
		fmt.Fprintf(&b, "%d,", rank[d])
	}
	for _, name := range s.Relations() {
		tuples := s.Tuples(name)
		rows := make([]string, len(tuples))
		for i, t := range tuples {
			var r strings.Builder
			for j, e := range t {
				if j > 0 {
					r.WriteByte(',')
				}
				fmt.Fprintf(&r, "%d", rank[e])
			}
			rows[i] = r.String()
		}
		sort.Strings(rows)
		fmt.Fprintf(&b, ";%s(%d):%s", name, s.Arity(name), strings.Join(rows, "|"))
	}
	return b.String()
}

// Isomorphic reports whether (a, distA) and (b, distB) are isomorphic
// structures with distinguished tuples: a bijection between domains
// preserving all facts in both directions and mapping distA pointwise
// to distB. Intended for the small structures arising as tableaux;
// complexity is exponential in the worst case but color refinement
// prunes heavily.
func Isomorphic(a, b *Structure, distA, distB []int) bool {
	if len(distA) != len(distB) {
		return false
	}
	if a.DomainSize() != b.DomainSize() || a.NumFacts() != b.NumFacts() {
		return false
	}
	ra, rb := a.Relations(), b.Relations()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] || a.Arity(ra[i]) != b.Arity(rb[i]) ||
			len(a.Tuples(ra[i])) != len(b.Tuples(rb[i])) {
			return false
		}
	}
	ca, cb := refine(a, distA), refine(b, distB)
	// Group b's elements by color.
	byColor := map[string][]int{}
	for e, c := range cb {
		byColor[c] = append(byColor[c], e)
	}
	// Color histograms must match.
	histA := map[string]int{}
	for _, c := range ca {
		histA[c]++
	}
	for c, n := range histA {
		if len(byColor[c]) != n {
			return false
		}
	}
	domA := a.Domain()
	// Order: distinguished first, then rarest color class first.
	sort.Slice(domA, func(i, j int) bool {
		return len(byColor[ca[domA[i]]]) < len(byColor[ca[domA[j]]])
	})
	f := map[int]int{}
	used := map[int]bool{}
	for i, e := range distA {
		if prev, ok := f[e]; ok {
			if prev != distB[i] {
				return false
			}
			continue
		}
		if used[distB[i]] {
			return false
		}
		if ca[e] != cb[distB[i]] {
			return false
		}
		f[e] = distB[i]
		used[distB[i]] = true
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(domA) {
			return isoCheck(a, b, f)
		}
		v := domA[i]
		if _, ok := f[v]; ok {
			return rec(i + 1)
		}
		for _, w := range byColor[ca[v]] {
			if used[w] {
				continue
			}
			f[v] = w
			used[w] = true
			if partialIsoOK(a, b, f, v) && rec(i+1) {
				return true
			}
			delete(f, v)
			used[w] = false
		}
		return false
	}
	return rec(0)
}

// partialIsoOK checks all facts of a fully assigned under f that
// involve v map to facts of b.
func partialIsoOK(a, b *Structure, f map[int]int, v int) bool {
	for _, name := range a.Relations() {
	tuples:
		for _, t := range a.Tuples(name) {
			involves := false
			img := make([]int, len(t))
			for i, e := range t {
				if e == v {
					involves = true
				}
				w, ok := f[e]
				if !ok {
					continue tuples
				}
				img[i] = w
			}
			if involves && !b.Has(name, img...) {
				return false
			}
		}
	}
	return true
}

// isoCheck verifies f is a full isomorphism from a to b.
func isoCheck(a, b *Structure, f map[int]int) bool {
	for _, name := range a.Relations() {
		for _, t := range a.Tuples(name) {
			img := make([]int, len(t))
			for i, e := range t {
				w, ok := f[e]
				if !ok {
					return false
				}
				img[i] = w
			}
			if !b.Has(name, img...) {
				return false
			}
		}
	}
	// Same fact counts per relation (checked by caller) + injectivity
	// imply the inverse direction.
	seen := map[int]bool{}
	for _, w := range f {
		if seen[w] {
			return false
		}
		seen[w] = true
	}
	return true
}
