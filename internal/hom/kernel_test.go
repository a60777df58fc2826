package hom

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cqapprox/internal/relstr"
)

// kernelCase is one random instance for the differential tests: a
// source and a target over unary, binary and ternary relations, with a
// pre-assignment, a restriction, a projection and distinguished tuples.
type kernelCase struct {
	a, b         *relstr.Structure
	pre          map[int]int
	allowed      map[int][]int
	proj         []int
	distA, distB []int
	wide         bool // b is padded with isolated elements
}

var kernelRels = []struct {
	name  string
	arity int
}{{"U", 1}, {"E", 2}, {"T", 3}}

// drawStructure draws a structure over n elements (element i is
// off+3i, so dense ids differ from the values): each relation is
// missing, declared empty or holds a few random tuples, repeated
// arguments included, and with extras some elements sit in no tuple.
// Those take random ids from 3n below the first element's to 3n above
// the last's, skipping the element ids, so their dense ids fall below,
// among and above the others, next to them or far from them.
func drawStructure(rng *rand.Rand, n, off int, extras bool) *relstr.Structure {
	s := relstr.New()
	elem := func() int { return off + 3*rng.Intn(n) }
	for _, r := range kernelRels {
		switch rng.Intn(5) {
		case 0: // missing
		case 1:
			s.Declare(r.name, r.arity)
		default:
			for k := 1 + rng.Intn(n+2); k > 0; k-- {
				t := make([]int, r.arity)
				for i := range t {
					t[i] = elem()
				}
				s.Add(r.name, t...)
			}
		}
	}
	if !extras {
		return s
	}
	for k := rng.Intn(3); k > 0; k-- {
		e := off - 3*n + rng.Intn(9*n)
		if d := e - off; d >= 0 && d < 3*n && d%3 == 0 {
			e++
		}
		s.AddElement(e)
	}
	return s
}

// widen returns b with its elements spread apart (e becomes 97·e) and
// pad isolated elements added, half below b's smallest element and half
// among its elements. The result has more than pad dense ids, b's own
// elements sit past the first mask word and between padding ids, and
// its relations stay as sparse as b's.
func widen(rng *rand.Rand, b *relstr.Structure, pad int) *relstr.Structure {
	const step = 97
	w := relstr.New()
	for _, r := range b.Relations() {
		w.Declare(r, b.Arity(r))
		for _, t := range b.Tuples(r) {
			u := make([]int, len(t))
			for i, e := range t {
				u[i] = step * e
			}
			w.Add(r, u...)
		}
	}
	lo, span := 0, 4*pad
	if d := b.Domain(); len(d) > 0 {
		lo, span = step*d[0], max(span, step*(d[len(d)-1]-d[0]))
		for _, e := range d {
			w.AddElement(step * e)
		}
	}
	seen := map[int]bool{}
	for _, e := range w.Domain() {
		seen[e] = true
	}
	for added := 0; added < pad; {
		v := lo + rng.Intn(span)
		if added < pad/2 {
			v = lo - 1 - rng.Intn(4*pad)
		}
		if !seen[v] {
			seen[v] = true
			w.AddElement(v)
			added++
		}
	}
	return w
}

// drawValue picks an element of dom, or now and then a value outside it.
func drawValue(rng *rand.Rand, dom []int) int {
	if len(dom) == 0 || rng.Intn(6) == 0 {
		return 1000 + rng.Intn(3)
	}
	return dom[rng.Intn(len(dom))]
}

// drawCase draws one instance. With pad > 0 the target is widened by
// pad isolated elements and the source has no isolated element, so
// the homomorphisms stay few while the target's masks span several
// words; pre, restrictions and distinguished tuples still name the
// target's own elements.
func drawCase(rng *rand.Rand, maxA, maxB, pad int) kernelCase {
	c := kernelCase{
		a: drawStructure(rng, 1+rng.Intn(maxA), rng.Intn(3), pad == 0),
		b: drawStructure(rng, 1+rng.Intn(maxB), -rng.Intn(3), true),
	}
	da, db := c.a.Domain(), c.b.Domain()
	if c.wide = pad > 0; c.wide {
		c.b = widen(rng, c.b, pad)
		for i := range db {
			db[i] *= 97
		}
	}
	if rng.Intn(2) == 0 {
		c.pre = map[int]int{}
		for k := rng.Intn(4); k > 0; k-- {
			c.pre[drawValue(rng, da)] = drawValue(rng, db)
		}
	}
	if rng.Intn(3) == 0 {
		c.allowed = map[int][]int{}
		for k := rng.Intn(4); k > 0; k-- {
			list := []int{}
			for j := rng.Intn(4); j > 0; j-- {
				list = append(list, drawValue(rng, db))
			}
			c.allowed[drawValue(rng, da)] = list
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		c.proj = append(c.proj, drawValue(rng, da))
	}
	for k := rng.Intn(3); k > 0; k-- {
		c.distA = append(c.distA, drawValue(rng, da))
		c.distB = append(c.distB, drawValue(rng, db))
	}
	return c
}

// homsOf lists every homomorphism ForEach enumerates, in order.
func homsOf(forEach func(fn func(map[int]int) bool) bool) []map[int]int {
	var out []map[int]int
	forEach(func(h map[int]int) bool { out = append(out, h); return true })
	return out
}

// checkKernel compares every entry point of the kernel on c with the
// reference solver.
func checkKernel(c kernelCase) error {
	a, b, pre := c.a, c.b, c.pre
	if got, want := Exists(a, b, pre), refExists(a, b, pre); got != want {
		return fmt.Errorf("Exists = %v, reference %v", got, want)
	}
	if got, want := CountRestricted(a, b, pre, nil), refCount(a, b, pre); got != want {
		return fmt.Errorf("CountRestricted(nil) = %d, reference %d", got, want)
	}
	gh, gok := find(a, b, pre)
	wh, wok := refFind(a, b, pre)
	if gok != wok || !reflect.DeepEqual(gh, wh) {
		return fmt.Errorf("Find = %v %v, reference %v %v", gh, gok, wh, wok)
	}
	got := homsOf(func(fn func(map[int]int) bool) bool { return ForEach(a, b, pre, fn) })
	want := homsOf(func(fn func(map[int]int) bool) bool { return refForEach(a, b, pre, fn) })
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("ForEach = %v, reference %v", got, want)
	}
	var gp, wp [][]int
	project(a, b, pre, c.proj, func(v []int) bool { gp = append(gp, v); return true })
	refProject(a, b, pre, c.proj, func(v []int) bool { wp = append(wp, v); return true })
	if !reflect.DeepEqual(gp, wp) {
		return fmt.Errorf("project(%v) = %v, reference %v", c.proj, gp, wp)
	}
	if got, want := CountRestricted(a, b, pre, c.allowed), refCountRestricted(a, b, pre, c.allowed); got != want {
		return fmt.Errorf("CountRestricted(%v) = %d, reference %d", c.allowed, got, want)
	}
	if got, want := ExistsRestricted(a, b, pre, c.allowed), refExistsRestricted(a, b, pre, c.allowed); got != want {
		return fmt.Errorf("ExistsRestricted(%v) = %v, reference %v", c.allowed, got, want)
	}
	got = homsOf(func(fn func(map[int]int) bool) bool { return forEachRestricted(a, b, pre, c.allowed, fn) })
	want = homsOf(func(fn func(map[int]int) bool) bool { return refForEachRestricted(a, b, pre, c.allowed, fn) })
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("forEachRestricted(%v) = %v, reference %v", c.allowed, got, want)
	}
	pa, pb := Pointed{S: a, Dist: c.distA}, Pointed{S: b, Dist: c.distB}
	dirs := [][2]Pointed{{pa, pb}, {pa, pa}, {pb, pa}}
	if c.wide {
		// Both solvers assign elements without atoms first when their
		// static domains are smallest, so a failing search from a padded
		// b tries every map of the padding into a.
		dirs = dirs[:2]
	}
	for _, d := range dirs {
		got, _ := MapsCompiledCtx(nil, Compile(d[0]), Compile(d[1]))
		want, _ := refMapsCompiledCtx(nil, refCompilePointed(d[0]), refCompilePointed(d[1]))
		if got != want || Maps(d[0], d[1]) != want {
			return fmt.Errorf("Maps(%v, %v) = %v, reference %v", d[0], d[1], got, want)
		}
	}
	for _, s := range []*relstr.Structure{a, b} {
		dist := c.distA
		if s == b {
			dist = nil
		}
		gc, gr := Core(s, dist)
		wc, wr := refCore(s, dist)
		if !gc.Equal(wc) || gc.String() != wc.String() || !reflect.DeepEqual(gr, wr) {
			return fmt.Errorf("Core(%v, %v) = %v %v, reference %v %v", s, dist, gc, gr, wc, wr)
		}
		if got, want := IsCore(s, dist), refIsCore(s, dist); got != want {
			return fmt.Errorf("IsCore(%v, %v) = %v, reference %v", s, dist, got, want)
		}
	}
	return nil
}

// bruteCount counts the homomorphisms from a to b extending pre under
// allowed by trying every map: pre fixes an element, allowed lists its
// values, and any other element ranges over b's active domain.
func bruteCount(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int) int {
	dom := a.Domain()
	vals := make([][]int, len(dom))
	for i, e := range dom {
		vals[i] = b.Domain()
		if list, ok := allowed[e]; ok {
			vals[i] = slices.Compact(slices.Sorted(slices.Values(list)))
		}
		if w, ok := pre[e]; ok {
			if _, ok := allowed[e]; ok && !slices.Contains(vals[i], w) {
				return 0
			}
			vals[i] = []int{w}
		}
	}
	h := map[int]int{}
	n := 0
	var rec func(i int)
	rec = func(i int) {
		if i == len(dom) {
			for _, r := range a.Relations() {
				for _, t := range a.Tuples(r) {
					img := make([]int, len(t))
					for k, e := range t {
						img[k] = h[e]
					}
					if !b.Has(r, img...) {
						return
					}
				}
			}
			n++
			return
		}
		for _, v := range vals[i] {
			h[dom[i]] = v
			rec(i + 1)
		}
	}
	rec(0)
	return n
}

// checkBrute holds both solvers to the brute-force count on instances
// of at most 5 source and 4 target elements.
func checkBrute(c kernelCase) error {
	if c.a.DomainSize() > 5 || c.b.DomainSize() > 4 {
		return nil
	}
	for _, allowed := range []map[int][]int{nil, c.allowed} {
		want := bruteCount(c.a, c.b, c.pre, allowed)
		if got := CountRestricted(c.a, c.b, c.pre, allowed); got != want {
			return fmt.Errorf("kernel counts %d homomorphisms under %v, brute force %d", got, allowed, want)
		}
		if got := refCountRestricted(c.a, c.b, c.pre, allowed); got != want {
			return fmt.Errorf("reference counts %d homomorphisms under %v, brute force %d", got, allowed, want)
		}
		if got := ExistsRestricted(c.a, c.b, c.pre, allowed); got != (want > 0) {
			return fmt.Errorf("kernel Exists = %v under %v, brute force counts %d", got, allowed, want)
		}
	}
	return nil
}

// padFor maps a draw's width selector to the padding of its target:
// past one mask word (65 to 512 ids) for 1, past eight (513 to 700)
// for 2 and none otherwise, so most fuzz inputs stay narrow and fast.
func padFor(rng *rand.Rand, wide int) int {
	switch wide % 8 {
	case 1:
		return 64 + rng.Intn(440)
	case 2:
		return 512 + rng.Intn(180)
	}
	return 0
}

func TestQuickKernelMatchesRef(t *testing.T) {
	for _, leg := range []struct {
		name  string
		wide  int
		count int
	}{{"narrow", 0, 1500}, {"wide", 1, 400}, {"wider", 2, 100}} {
		t.Run(leg.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				c := drawCase(rng, 6, 5, padFor(rng, leg.wide))
				if err := checkKernel(c); err != nil {
					t.Logf("seed %d: a=%v b=%v pre=%v allowed=%v: %v", seed, c.a, c.b, c.pre, c.allowed, err)
					return false
				}
				if err := checkBrute(c); err != nil {
					t.Logf("seed %d: a=%v b=%v pre=%v allowed=%v: %v", seed, c.a, c.b, c.pre, c.allowed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: leg.count, Rand: rand.New(rand.NewSource(34))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func FuzzHomKernel(f *testing.F) {
	for _, s := range []int64{0, 1, 7, 42, 1 << 20} {
		for wide := uint8(0); wide < 3; wide++ {
			f.Add(s, uint8(6), uint8(5), wide)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, maxA, maxB, wide uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := drawCase(rng, 1+int(maxA%7), 1+int(maxB%6), padFor(rng, int(wide)))
		if err := checkKernel(c); err != nil {
			t.Fatalf("a=%v b=%v pre=%v allowed=%v proj=%v: %v", c.a, c.b, c.pre, c.allowed, c.proj, err)
		}
		if err := checkBrute(c); err != nil {
			t.Fatalf("a=%v b=%v pre=%v allowed=%v: %v", c.a, c.b, c.pre, c.allowed, err)
		}
	})
}

// TestCompiledSharedConcurrently runs Maps searches in both directions
// over shared Compiled operands while other goroutines compute cores
// of the same structures; run under -race it checks that a search
// never writes a Compiled.
func TestCompiledSharedConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ps []Pointed
	var cs []*Compiled
	for len(ps) < 6 {
		s := drawStructure(rng, 3+rng.Intn(4), 0, true)
		d := s.Domain()
		if len(d) == 0 {
			continue
		}
		p := Pointed{S: s, Dist: []int{d[0]}}
		ps, cs = append(ps, p), append(cs, Compile(p))
	}
	want := make([][]bool, len(cs))
	for i := range cs {
		want[i] = make([]bool, len(cs))
		for j := range cs {
			want[i][j] = Maps(ps[i], ps[j])
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12) // one slot per goroutine: each sends at most once
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i := range cs {
					j := (i + g + r) % len(cs)
					for _, d := range [][2]int{{i, j}, {j, i}} {
						ok, err := MapsCompiledCtx(context.Background(), cs[d[0]], cs[d[1]])
						if err != nil || ok != want[d[0]][d[1]] {
							errs <- fmt.Errorf("Maps(%d, %d) = %v %v, want %v", d[0], d[1], ok, err, want[d[0]][d[1]])
							return
						}
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range ps {
				if _, _, err := CoreCtx(context.Background(), p.S, p.Dist); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIsolatedElementsDeferred: elements in no atom are picked last, so
// a failing search does not retry the rest once per combination of
// their values. The triangle has no homomorphism into the 2-cycle; with
// 40 isolated elements picked first the search would try 2^40 maps of
// them.
func TestIsolatedElementsDeferred(t *testing.T) {
	a := relstr.New()
	for k := 0; k < 40; k++ {
		a.AddElement(k) // below the triangle: first on ties
	}
	a.Add("E", 100, 101)
	a.Add("E", 101, 102)
	a.Add("E", 102, 100)
	b := relstr.New()
	b.Add("E", 0, 1)
	b.Add("E", 1, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	ok, err := existsCtx(ctx, a, b, nil, nil)
	if err != nil {
		t.Fatalf("Exists did not finish within a second: %v", err)
	}
	if ok {
		t.Fatal("triangle maps into the 2-cycle")
	}

	// The reference solver defers them the same way: ForEach visits the
	// maps of an edge plus two isolated elements in the same order.
	a = relstr.New()
	a.AddElement(0)
	a.AddElement(1)
	a.Add("E", 100, 101)
	var got, want []string
	ForEach(a, b, nil, func(h map[int]int) bool { got = append(got, fmt.Sprint(h)); return true })
	refForEach(a, b, nil, func(h map[int]int) bool { want = append(want, fmt.Sprint(h)); return true })
	if !slices.Equal(got, want) || len(got) != 8 {
		t.Fatalf("ForEach order %v, reference %v", got, want)
	}
}

// TestKernelDefersAtomFreePicks pins the deferral of atom-free picks
// on a fixed instance: every target element fills every position of
// every relation, so the atom-free source element 0 ties with the atom
// elements on its static domain and comes first on ties by id. Picked
// first, it would reorder ForEach and the projections against the
// reference solver.
func TestKernelDefersAtomFreePicks(t *testing.T) {
	b := relstr.New()
	for x := 0; x < 2; x++ {
		b.Add("U", x)
		for y := 0; y < 2; y++ {
			b.Add("E", x, y)
		}
	}
	a := relstr.New()
	a.AddElement(0)
	a.Add("E", 5, 6)
	a.Add("U", 6)
	c := kernelCase{a: a, b: b, proj: []int{0, 5}, distA: []int{5}, distB: []int{1}}
	if err := checkKernel(c); err != nil {
		t.Fatal(err)
	}
	if err := checkBrute(c); err != nil {
		t.Fatal(err)
	}
}

// forEachRestricted enumerates homomorphisms under the candidate
// restriction allowed; semantics otherwise match ForEach.
func forEachRestricted(a, b *relstr.Structure, pre map[int]int, allowed map[int][]int, fn func(h map[int]int) bool) bool {
	done, _ := forEachCtx(nil, a, b, pre, allowed, fn)
	return done
}
