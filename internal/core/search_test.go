package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cqapprox/internal/cq"
	"cqapprox/internal/hom"
	"cqapprox/internal/workload"
)

// checkAgainstRef runs the pruned search and the reference enumeration
// on (q, c, opt) and checks that they agree: the same number of
// approximations, pairwise equivalent; every result contained in q, in
// the class and confirmed by IsApproximation; and the same renderings
// when the partitions are enumerated over a shuffled element order.
func checkAgainstRef(t *testing.T, rng *rand.Rand, q *cq.Query, c Class, opt Options) {
	t.Helper()
	name := fmt.Sprintf("%v into %s %+v", q, c.Name(), opt)
	got, _, err := approxFront(nil, q, c, opt, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refApproxFront(q, c, opt)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d approximations, reference has %d:\n got %v\nwant %v", name, len(got), len(want), render(q, got), render(q, want))
	}
	for _, g := range got {
		found := false
		for _, w := range want {
			if hom.Maps(g, w) && hom.Maps(w, g) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: %v has no equivalent in the reference result %v", name, render(q, []hom.Pointed{g}), render(q, want))
		}
		a := queryFromPointed(q, g)
		if !hom.Contained(a, q) {
			t.Errorf("%s: %v not contained in q", name, a)
		}
		if !c.Contains(g.S) {
			t.Errorf("%s: %v not in the class", name, a)
		}
		if ok, err := IsApproximation(q, a, c, opt); err != nil || !ok {
			t.Errorf("%s: IsApproximation(%v) = %v, %v", name, a, ok, err)
		}
	}
	order := q.Tableau().S.Domain()
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	shuffled, _, err := approxFront(nil, q, c, opt, order)
	if err != nil {
		t.Fatalf("%s: shuffled order %v: %v", name, order, err)
	}
	if a, b := fmt.Sprint(render(q, got)), fmt.Sprint(render(q, shuffled)); a != b {
		t.Fatalf("%s: element order %v changed the result:\n%s\n%s", name, order, a, b)
	}
}

func render(q *cq.Query, ps []hom.Pointed) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = queryFromPointed(q, p).String()
	}
	return out
}

// randomQuery draws a small, usually cyclic query over E (binary) and
// R (ternary), sized so that the reference enumeration stays cheap: a
// cycle through 3…nVars of the variables v0…v(nVars−1) — a ternary
// link carries a random middle variable — plus up to two random atoms,
// and, when withHead is set, a head of one or two (possibly repeated)
// body variables.
func randomQuery(rng *rand.Rand, nVars int, ternary, withHead bool) *cq.Query {
	q := &cq.Query{Name: "Q"}
	name := func(i int) string { return fmt.Sprintf("v%d", i) }
	v := func() string { return name(rng.Intn(nVars)) }
	atom := func(a, b string) cq.Atom {
		if ternary && rng.Intn(2) == 0 {
			return cq.Atom{Rel: "R", Args: []string{a, v(), b}}
		}
		if rng.Intn(4) == 0 {
			a, b = b, a
		}
		return cq.Atom{Rel: "E", Args: []string{a, b}}
	}
	cycle := rng.Perm(nVars)[:3+rng.Intn(nVars-2)]
	for i, x := range cycle {
		q.Atoms = append(q.Atoms, atom(name(x), name(cycle[(i+1)%len(cycle)])))
	}
	for n := rng.Intn(3); n > 0; n-- {
		q.Atoms = append(q.Atoms, atom(v(), v()))
	}
	if withHead {
		vars := q.Vars()
		for h := 1 + rng.Intn(2); h > 0; h-- {
			q.Head = append(q.Head, vars[rng.Intn(len(vars))])
		}
	}
	return q
}

var refClasses = []Class{TW(1), TW(2), AC(), HTW(2), GHTW(2)}

// The pruned search returns what the exhaustive reference returns, on
// the benchmark's query suite, the paper's examples and random queries
// under every extension setting.
func TestApproxFrontMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range workload.QuerySuite() {
		for _, c := range refClasses {
			checkAgainstRef(t, rng, q, c, DefaultOptions())
		}
	}
	paper := []string{
		"Q() :- E(x,y), E(y,z), E(z,x)",
		"Q() :- E(x,y), E(y,z), E(z,u), E(x,u)",
		"Q(x) :- E(x,y), E(y,z), E(z,x), E(x,w)",
		"Q(x1,x2,x3) :- E(x1,x2), E(x2,x3), E(x3,x4), E(x4,x1)",
		"Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)",
		"Q() :- R(x,u,y), R(y,v,z), R(z,w,x)",
		"Q(x,y) :- E(x,z), E(z,y), E(y,w), E(w,x)",
	}
	for _, src := range paper {
		for _, c := range refClasses {
			checkAgainstRef(t, rng, cq.MustParse(src), c, DefaultOptions())
		}
	}
	// The random leg weights AC double: it is the class whose
	// extension search the pruning changed most.
	classes := append([]Class{AC()}, refClasses...)
	for i := 0; i < 200; i++ {
		ternary := i%2 == 1
		withHead := i%4 >= 2
		opt := Options{MaxExtraAtoms: rng.Intn(3), FreshVars: rng.Intn(2)}
		checkAgainstRef(t, rng, randomQuery(rng, varBudget(opt, ternary), ternary, withHead), classes[rng.Intn(len(classes))], opt)
	}
}

// varBudget is the variable count randomQuery may use under opt: two
// extra atoms from a cubic ternary pool are what the reference pays
// most for.
func varBudget(opt Options, ternary bool) int {
	switch {
	case ternary && opt.MaxExtraAtoms == 2:
		return 3
	case ternary || opt.MaxExtraAtoms == 2:
		return 4
	}
	return 5
}

// FuzzApproxFront is TestApproxFrontMatchesRef's random leg driven by
// the fuzzer: a seed, a class and an extension setting.
func FuzzApproxFront(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(1), false, false)
	f.Add(int64(7), uint8(0), uint8(0), true, true)
	f.Add(int64(42), uint8(3), uint8(4), true, false)
	f.Fuzz(func(t *testing.T, seed int64, class, ext uint8, ternary, withHead bool) {
		rng := rand.New(rand.NewSource(seed))
		opt := Options{MaxExtraAtoms: int(ext % 3), FreshVars: int(ext/3) % 2}
		q := randomQuery(rng, varBudget(opt, ternary), ternary, withHead)
		checkAgainstRef(t, rng, q, refClasses[int(class)%len(refClasses)], opt)
	})
}
