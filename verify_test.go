package cqapprox

import (
	"context"
	"strings"
	"testing"

	"cqapprox/internal/workload"
)

// TestVerifyQuerySuite re-proves every prepare of the query suite into
// each class, and the exact prepare of each query.
func TestVerifyQuerySuite(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	classes := []Class{TW(1), TW(2), AC(), HTW(2)}
	for _, q := range workload.QuerySuite() {
		for _, c := range classes {
			p, err := e.Prepare(ctx, q, c)
			if err != nil {
				t.Fatalf("%v into %s: %v", q, c.Name(), err)
			}
			if err := p.Verify(); err != nil {
				t.Errorf("%v into %s: %v", q, c.Name(), err)
			}
		}
		p, err := e.PrepareExact(ctx, q)
		if err != nil {
			t.Fatalf("%v exact: %v", q, err)
		}
		if err := p.Verify(); err != nil {
			t.Errorf("%v exact: %v", q, err)
		}
	}
}

// TestVerifyPaperExamples re-proves the prepares of the paper's
// examples: the introduction's triangle and ternary cycle, Theorem
// 5.8's non-Boolean triangle and Example 6.6's ternary cycle.
func TestVerifyPaperExamples(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	cases := []struct {
		q string
		c Class
	}{
		{"Q() :- E(x,y), E(y,z), E(z,x)", AC()},
		{"Q(x) :- E(x,y), E(y,z), E(z,x)", TW(1)},
		{"Q(x,y) :- E(x,y), E(y,z), E(z,x)", TW(1)},
		{"Q() :- E(x,y), E(y,z), E(z,u), E(x,u)", TW(1)},
		{"Q() :- R(x,u,y), R(y,v,z), R(z,w,x)", AC()},
		{"Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)", AC()},
		{"Q() :- R(x1,x2,x3), R(x3,x4,x5), R(x5,x6,x1)", HTW(1)},
	}
	for _, tc := range cases {
		p, err := e.Prepare(ctx, MustParse(tc.q), tc.c)
		if err != nil {
			t.Fatalf("%s into %s: %v", tc.q, tc.c.Name(), err)
		}
		if err := p.Verify(); err != nil {
			t.Errorf("%s into %s: %v", tc.q, tc.c.Name(), err)
		}
	}
}

// TestVerifyRejectsDominated swaps the chosen approximation of the
// triangle for a dominated TW(1)-query: the loop E(x,x) is contained in
// the triangle and in TW(1), but strictly inside the approximation. A
// query outside the class and one not contained in the triangle must
// fail on those properties instead.
func TestVerifyRejectsDominated(t *testing.T) {
	p, err := NewEngine().Prepare(context.Background(), MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)"), TW(1))
	if err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.chosen = MustParse("Q(x) :- E(x,x)")
	err = bad.Verify()
	if err == nil || !strings.Contains(err.Error(), "maximality") {
		t.Fatalf("Verify with a dominated candidate = %v, want a maximality failure", err)
	}
	bad.chosen = MustParse("Q(x) :- E(x,y), E(y,z)")
	if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), "Q′ ⊆ Q") {
		t.Fatalf("Verify with an uncontained query = %v, want a containment failure", err)
	}
	bad.chosen = MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	if err := bad.Verify(); err == nil || !strings.Contains(err.Error(), "Q′ ∈") {
		t.Fatalf("Verify with a query outside the class = %v, want a class failure", err)
	}
}
