package relstr

import "sort"

// Map returns the homomorphic image of s under f: the structure whose
// facts are R(f(t̄)) for every fact R(t̄) of s. Registered extra
// elements are mapped as well. f must be defined (total) on the active
// domain of s.
//
// When f is induced by a partition of the domain this is exactly the
// quotient structure; the paper's Im(h) for a homomorphism h defined on
// s coincides with s.Map(h) as a structure.
func (s *Structure) Map(f func(int) int) *Structure {
	out := s.CloneSchema()
	for name, r := range s.rels {
		buf := make([]int, r.arity)
		for _, t := range r.set.Rows() {
			for i, e := range t {
				buf[i] = f(e)
			}
			out.Add(name, buf...)
		}
	}
	for e := range s.extra {
		out.AddElement(f(e))
	}
	return out
}

// Induced returns the substructure of s induced by keep: all facts
// whose elements all lie in keep. Extra elements outside keep are
// dropped.
func (s *Structure) Induced(keep map[int]bool) *Structure {
	out := s.CloneSchema()
	for name, r := range s.rels {
	tuples:
		for _, t := range r.set.Rows() {
			for _, e := range t {
				if !keep[e] {
					continue tuples
				}
			}
			out.Add(name, t...)
		}
	}
	for e := range s.extra {
		if keep[e] {
			out.AddElement(e)
		}
	}
	return out
}

// Without returns the substructure of s induced by adom(s) ∖ {v}.
func (s *Structure) Without(v int) *Structure {
	keep := s.DomainSet()
	delete(keep, v)
	return s.Induced(keep)
}

// DisjointUnion returns the disjoint union of s and o, renaming the
// elements of o by adding offset so they cannot clash with elements of
// s. It returns the union together with the offset used, so callers can
// locate o's elements (element e of o becomes e+offset).
func DisjointUnion(s, o *Structure) (*Structure, int) {
	offset := 0
	if d := s.Domain(); len(d) > 0 {
		offset = d[len(d)-1] + 1
	}
	if od := o.Domain(); len(od) > 0 && od[0] < 0 {
		offset -= od[0] // ensure shifted elements stay above s's max
	}
	out := s.Clone()
	shifted := o.Map(func(e int) int { return e + offset })
	for name, r := range shifted.rels {
		out.Declare(name, r.arity)
		for _, t := range r.set.Rows() {
			out.Add(name, t...)
		}
	}
	for e := range shifted.extra {
		out.AddElement(e)
	}
	return out, offset
}

// Normalize returns an isomorphic copy of s whose domain is
// {0, …, n−1} following the ascending order of the original domain,
// together with the renaming old→new.
func (s *Structure) Normalize() (*Structure, map[int]int) {
	dom := s.Domain()
	ren := make(map[int]int, len(dom))
	for i, e := range dom {
		ren[e] = i
	}
	return s.Map(func(e int) int { return ren[e] }), ren
}

// Partition represents a partition of a finite element set as a map
// from element to block representative (the minimum element of the
// block).
type Partition map[int]int

// QuotientBy returns the quotient of s by the partition p: every
// element is replaced by its block representative. Elements absent from
// p map to themselves.
func (s *Structure) QuotientBy(p Partition) *Structure {
	return s.Map(func(e int) int {
		if r, ok := p[e]; ok {
			return r
		}
		return e
	})
}

// ForEachPartition enumerates the set partitions of the positions
// 0…n−1 finest first: all partitions into n blocks, then n−1, …, then
// the single block. Partitions with more blocks come first, so every
// strict refinement of a partition is visited before it. Each one is
// passed as a restricted-growth string — block[i] is the block index of
// position i, block[0] = 0 and block[i] ≤ 1 + max(block[:i]) — together
// with its block count k. The slice is reused between calls and must
// not be retained. If fn returns false the enumeration stops and
// ForEachPartition returns false.
func ForEachPartition(n int, fn func(block []int, k int) bool) bool {
	if n == 0 {
		return fn(nil, 0)
	}
	block := make([]int, n)
	var k int
	// rec assigns position i given that blocks 0..m are already open;
	// it only takes branches that can still open all k blocks.
	var rec func(i, m int) bool
	rec = func(i, m int) bool {
		if i == n {
			return fn(block, k)
		}
		left := n - i - 1
		for b := 0; b <= m+1 && b < k; b++ {
			nm := max(m, b)
			if k-1-nm > left {
				continue
			}
			block[i] = b
			if !rec(i+1, nm) {
				return false
			}
		}
		return true
	}
	for k = n; k >= 1; k-- {
		if !rec(1, 0) {
			return false
		}
	}
	return true
}

// Blocks returns the blocks of p over the given universe, each sorted,
// with blocks ordered by their representative.
func (p Partition) Blocks(universe []int) [][]int {
	by := map[int][]int{}
	for _, e := range universe {
		r, ok := p[e]
		if !ok {
			r = e
		}
		by[r] = append(by[r], e)
	}
	reps := make([]int, 0, len(by))
	for r := range by {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	out := make([][]int, 0, len(reps))
	for _, r := range reps {
		b := by[r]
		sort.Ints(b)
		out = append(out, b)
	}
	return out
}
