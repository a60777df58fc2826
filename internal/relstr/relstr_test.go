package relstr

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddAndHas(t *testing.T) {
	s := New()
	if !s.Add("E", 1, 2) {
		t.Fatal("first Add returned false")
	}
	if s.Add("E", 1, 2) {
		t.Fatal("duplicate Add returned true")
	}
	if !s.Has("E", 1, 2) {
		t.Fatal("Has(E,1,2) = false")
	}
	if s.Has("E", 2, 1) {
		t.Fatal("Has(E,2,1) = true")
	}
	if s.NumFacts() != 1 {
		t.Fatalf("NumFacts = %d, want 1", s.NumFacts())
	}
	if s.Size() != 2 {
		t.Fatalf("Size = %d, want 2", s.Size())
	}
}

func TestArityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	s := New()
	s.Add("E", 1, 2)
	s.Add("E", 1, 2, 3)
}

func TestRedeclareMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on redeclare")
		}
	}()
	s := New()
	s.Declare("R", 2)
	s.Declare("R", 3)
}

func TestDomain(t *testing.T) {
	s := New()
	s.Add("E", 3, 1)
	s.Add("E", 1, 2)
	s.AddElement(9)
	got := s.Domain()
	want := []int{1, 2, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("Domain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Domain = %v, want %v", got, want)
		}
	}
}

func TestRemove(t *testing.T) {
	s := New()
	s.Add("E", 1, 2)
	s.Add("E", 2, 3)
	if !s.Remove("E", 1, 2) {
		t.Fatal("Remove existing returned false")
	}
	if s.Remove("E", 1, 2) {
		t.Fatal("Remove missing returned true")
	}
	if s.Has("E", 1, 2) || !s.Has("E", 2, 3) {
		t.Fatal("Remove removed the wrong tuple")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New()
	s.Add("E", 1, 2)
	c := s.Clone()
	c.Add("E", 2, 3)
	if s.Has("E", 2, 3) {
		t.Fatal("Clone shares state with original")
	}
	if !containedIn(s, c) || containedIn(c, s) {
		t.Fatal("containment after clone+add is wrong")
	}
}

func TestMapQuotient(t *testing.T) {
	s := New()
	s.Add("E", 0, 1)
	s.Add("E", 1, 2)
	s.Add("E", 2, 0)
	q := s.Map(func(e int) int { return 0 }) // collapse everything
	if q.NumFacts() != 1 || !q.Has("E", 0, 0) {
		t.Fatalf("constant map image = %v, want single loop", q)
	}
	// Identifying 0 and 2 leaves a two-element image.
	q2 := s.Map(func(e int) int {
		if e == 2 {
			return 0
		}
		return e
	})
	if q2.DomainSize() != 2 || !q2.Has("E", 0, 0) || !q2.Has("E", 0, 1) || !q2.Has("E", 1, 0) {
		t.Fatalf("quotient by {0,2} = %v", q2)
	}
}

func TestInducedAndWithout(t *testing.T) {
	s := New()
	s.Add("E", 0, 1)
	s.Add("E", 1, 2)
	sub := s.Without(2)
	if sub.NumFacts() != 1 || !sub.Has("E", 0, 1) {
		t.Fatalf("Without(2) = %v", sub)
	}
	if !containedIn(sub, s) || containedIn(s, sub) {
		t.Fatal("induced substructure containment broken")
	}
}

func TestDisjointUnion(t *testing.T) {
	a := New()
	a.Add("E", 0, 1)
	b := New()
	b.Add("E", 0, 1)
	u, off := DisjointUnion(a, b)
	if off <= 1 {
		t.Fatalf("offset = %d, want > 1", off)
	}
	if u.NumFacts() != 2 || !u.Has("E", 0, 1) || !u.Has("E", off, off+1) {
		t.Fatalf("DisjointUnion = %v", u)
	}
}

func TestPartitionsCount(t *testing.T) {
	bell := []int{1, 1, 2, 5, 15, 52, 203}
	for n := 0; n <= 6; n++ {
		elems := make([]int, n)
		for i := range elems {
			elems[i] = i
		}
		count := 0
		ForEachPartition(n, func([]int, int) bool { count++; return true })
		if count != bell[n] {
			t.Errorf("ForEachPartition(%d) visited %d partitions, want Bell(%d)=%d", n, count, n, bell[n])
		}
	}
}

// ForEachPartition visits every partition once, finest first: block
// counts never increase, each count k is visited S(n,k) times (Stirling
// numbers of the second kind), and every block string is a valid
// restricted-growth string with exactly k blocks.
func TestForEachPartitionFinestFirst(t *testing.T) {
	stirling := [][]int{{1}, {0, 1}, {0, 1, 1}, {0, 1, 3, 1}, {0, 1, 7, 6, 1}, {0, 1, 15, 25, 10, 1}, {0, 1, 31, 90, 65, 15, 1}}
	for n := 0; n <= 6; n++ {
		perK := make([]int, n+1)
		seen := map[string]bool{}
		last := n
		ForEachPartition(n, func(block []int, k int) bool {
			if k > last {
				t.Fatalf("n=%d: %d blocks after %d", n, k, last)
			}
			last = k
			top := -1
			for i, b := range block {
				if b > top+1 || (i == 0 && b != 0) {
					t.Fatalf("n=%d: %v is not a restricted-growth string", n, block)
				}
				top = max(top, b)
			}
			if top+1 != k {
				t.Fatalf("n=%d: %v has %d blocks, reported %d", n, block, top+1, k)
			}
			key := fmt.Sprint(block)
			if seen[key] {
				t.Fatalf("n=%d: %v visited twice", n, block)
			}
			seen[key] = true
			perK[k]++
			return true
		})
		for k, want := range stirling[n] {
			if perK[k] != want {
				t.Errorf("n=%d: %d partitions into %d blocks, want S(%d,%d)=%d", n, perK[k], k, n, k, want)
			}
		}
	}
}

func TestPartitionsEarlyStop(t *testing.T) {
	count := 0
	done := ForEachPartition(4, func([]int, int) bool { count++; return count < 3 })
	if done || count != 3 {
		t.Fatalf("early stop: done=%v count=%d", done, count)
	}
}

func TestPartitionBlocks(t *testing.T) {
	elems := []int{0, 1, 2}
	var found bool
	ForEachPartition(len(elems), func(block []int, _ int) bool {
		p := partitionOf(elems, block)
		if p[0] == p[1] && p[2] != p[0] {
			found = true
			if p[0] != 0 || p[2] != 2 || fmt.Sprint(block) != "[0 0 1]" {
				t.Errorf("partition {0,1}{2} = %v from %v", p, block)
			}
			return false
		}
		return true
	})
	if !found {
		t.Fatal("partition {0,1}{2} not enumerated")
	}
}

// partitionOf maps each of the sorted elems to the least element of
// its block in the restricted-growth string block.
func partitionOf(elems, block []int) map[int]int {
	p := make(map[int]int, len(elems))
	rep := map[int]int{}
	for j, e := range elems {
		r, ok := rep[block[j]]
		if !ok {
			r = e
			rep[block[j]] = e
		}
		p[e] = r
	}
	return p
}

// quotientBy is the quotient of s by the partition p, given as element
// → block representative: s.Map by p, elements absent from p fixed.
func quotientBy(s *Structure, p map[int]int) *Structure {
	return s.Map(func(e int) int {
		if r, ok := p[e]; ok {
			return r
		}
		return e
	})
}

func TestQuotientByContainsImageFacts(t *testing.T) {
	s := New()
	s.Add("R", 1, 2, 3)
	s.Add("R", 3, 4, 5)
	q := quotientBy(s, map[int]int{1: 1, 3: 1, 5: 1, 2: 2, 4: 2})
	if !q.Has("R", 1, 2, 1) || !q.Has("R", 1, 2, 1) {
		t.Fatalf("quotient = %v", q)
	}
	if q.DomainSize() != 2 {
		t.Fatalf("quotient domain = %v", q.Domain())
	}
}

// isoBrute reports whether some bijection of a's elements onto b's
// maps distA to distB and a's facts onto b's, by trying every
// permutation: the reference for CanonicalKey, on at most 7 elements.
func isoBrute(a, b *Structure, distA, distB []int) bool {
	da, db := a.Domain(), b.Domain()
	if len(da) != len(db) || len(da) > 7 || a.NumFacts() != b.NumFacts() || len(distA) != len(distB) {
		return false
	}
	f := map[int]int{}
	used := make([]bool, len(db))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(da) {
			for j, d := range distA {
				if f[d] != distB[j] {
					return false
				}
			}
			// f is injective and the fact counts agree, so a's image
			// inside b is all of b.
			return containedIn(a.Map(func(e int) int { return f[e] }), b)
		}
		for j, e := range db {
			if !used[j] {
				used[j], f[da[i]] = true, e
				if rec(i + 1) {
					return true
				}
				used[j] = false
			}
		}
		return false
	}
	return rec(0)
}

// sameKey reports whether (a, distA) and (b, distB) get the same
// canonical key, failing unless both keys come from the exact search
// (the c| prefix), under which equal keys mean isomorphic.
func sameKey(t *testing.T, a, b *Structure, distA, distB []int) bool {
	t.Helper()
	ka, kb := CanonicalKey(a, distA), CanonicalKey(b, distB)
	if !strings.HasPrefix(ka, "c|") || !strings.HasPrefix(kb, "c|") {
		t.Fatalf("keys %q and %q are not both exact", ka, kb)
	}
	return ka == kb
}

func TestIsomorphicBasic(t *testing.T) {
	a := New()
	a.Add("E", 0, 1)
	a.Add("E", 1, 2)
	b := New()
	b.Add("E", 5, 7)
	b.Add("E", 7, 9)
	if !sameKey(t, a, b, nil, nil) || !isoBrute(a, b, nil, nil) {
		t.Fatal("paths of length 2 should be isomorphic")
	}
	c := New()
	c.Add("E", 0, 1)
	c.Add("E", 2, 1)
	if sameKey(t, a, c, nil, nil) || isoBrute(a, c, nil, nil) {
		t.Fatal("path 0→1→2 is not isomorphic to 0→1←2")
	}
}

func TestIsomorphicDistinguished(t *testing.T) {
	a := New()
	a.Add("E", 0, 1)
	b := New()
	b.Add("E", 0, 1)
	if !sameKey(t, a, b, []int{0}, []int{0}) {
		t.Fatal("identical structures with matching dist should be isomorphic")
	}
	if sameKey(t, a, b, []int{0}, []int{1}) || isoBrute(a, b, []int{0}, []int{1}) {
		t.Fatal("dist 0↦1 reverses the edge; should not be isomorphic")
	}
}

func TestIsomorphicCycleVsPath(t *testing.T) {
	cyc := New()
	cyc.Add("E", 0, 1)
	cyc.Add("E", 1, 2)
	cyc.Add("E", 2, 0)
	path := New()
	path.Add("E", 0, 1)
	path.Add("E", 1, 2)
	path.Add("E", 0, 2)
	if sameKey(t, cyc, path, nil, nil) || isoBrute(cyc, path, nil, nil) {
		t.Fatal("directed 3-cycle vs transitive triangle should differ")
	}
}

// Property: for random structures, Map with a permutation yields an
// isomorphic structure, which gets the same canonical key.
func TestQuickPermutationIsomorphism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomStructure(rng, 5, 7)
		dom := s.Domain()
		perm := rng.Perm(len(dom))
		ren := map[int]int{}
		for i, e := range dom {
			ren[e] = dom[perm[i]]
		}
		img := s.Map(func(e int) int { return ren[e] })
		var dist, imgDist []int
		if len(dom) > 0 {
			d := dom[rng.Intn(len(dom))]
			dist, imgDist = []int{d}, []int{ren[d]}
		}
		return sameKey(t, s, img, dist, imgDist)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// CanonicalKey gives two pointed structures the same exact key iff a
// brute-force search over all bijections finds an isomorphism, on
// random pairs of at most 5 elements, half of them renamed copies.
func TestCanonicalKeyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iso := 0
	for i := 0; i < 400; i++ {
		a := randomStructure(rng, 4, 2+rng.Intn(4))
		b := randomStructure(rng, 4, 2+rng.Intn(4))
		if i%2 == 0 {
			off := 10 + rng.Intn(5)
			b = a.Map(func(e int) int { return off + (e*3)%4 }) // a bijection of 0…3
		}
		var distA, distB []int
		if da, db := a.Domain(), b.Domain(); rng.Intn(2) == 0 && len(da) > 0 && len(db) > 0 {
			distA, distB = []int{da[rng.Intn(len(da))]}, []int{db[rng.Intn(len(db))]}
		}
		want := isoBrute(a, b, distA, distB)
		if got := sameKey(t, a, b, distA, distB); got != want {
			t.Fatalf("%v %v and %v %v: equal keys %v, isomorphic %v", a, distA, b, distB, got, want)
		}
		if want {
			iso++
		}
	}
	t.Logf("%d of 400 pairs isomorphic", iso)
}

// Property: quotients never increase the number of facts or domain size.
func TestQuickQuotientShrinks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomStructure(rng, 5, 7)
		dom := s.Domain()
		if len(dom) == 0 {
			return true
		}
		ok := true
		ForEachPartition(len(dom), func(block []int, _ int) bool {
			q := quotientBy(s, partitionOf(dom, block))
			if q.NumFacts() > s.NumFacts() || q.DomainSize() > s.DomainSize() {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func randomStructure(rng *rand.Rand, n, edges int) *Structure {
	s := New()
	s.Declare("E", 2)
	for i := 0; i < edges; i++ {
		s.Add("E", rng.Intn(n), rng.Intn(n))
	}
	return s
}

// leafChain is A(x,h), B(h,z), L(h,y0), …, L(h,y(k−1)) over elements
// x, h, z, y0… given by name, with the facts in the given order and
// the distinguished tuple (x, z).
func leafChain(k int, name func(int) int, reversed bool) (*Structure, []int) {
	type fact struct {
		rel  string
		args []int
	}
	facts := []fact{{"A", []int{0, 1}}, {"B", []int{1, 2}}}
	for i := 0; i < k; i++ {
		facts = append(facts, fact{"L", []int{1, 3 + i}})
	}
	if reversed {
		slices.Reverse(facts)
	}
	s := New()
	for _, f := range facts {
		s.Add(f.rel, name(f.args[0]), name(f.args[1]))
	}
	return s, []int{name(0), name(2)}
}

// The canonical-form search individualizes one leaf per twin class: a
// 12-leaf chain, whose leaves are all interchangeable, completes the
// exact search in a single labelling, and a renamed, reordered copy
// gets the same exact key.
func TestCanonicalKeyPrunesTwins(t *testing.T) {
	s, dist := leafChain(12, func(e int) int { return e }, false)
	c := &canonSearch{s: s, dist: dist}
	if !c.dfs(refine(s, dist)) || c.leaves != 1 {
		t.Fatalf("the 12-leaf chain rendered %d leaves, want 1", c.leaves)
	}
	key := CanonicalKey(s, dist)
	if !strings.HasPrefix(key, "c|") {
		t.Fatalf("key %q is not exact", key)
	}
	r, rdist := leafChain(12, func(e int) int { return 100 - 7*e }, true)
	if got := CanonicalKey(r, rdist); got != key {
		t.Fatalf("renamed copy has key %q, want %q", got, key)
	}
}

// containedIn reports whether every fact of s is a fact of o (the
// paper's "D1 is contained in D2": relation-wise ⊆).
func containedIn(s, o *Structure) bool {
	for name, r := range s.rels {
		or, ok := o.rels[name]
		if !ok {
			if r.set.Len() == 0 {
				continue
			}
			return false
		}
		if or.arity != r.arity {
			return false
		}
		for _, t := range r.set.Rows() {
			if !or.set.Has(t) {
				return false
			}
		}
	}
	return true
}
