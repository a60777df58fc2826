package eval

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cqapprox/internal/relstr"
	"cqapprox/internal/workload"
)

// TestLeafChainPolynomial holds every read of the leaf chain
// Q(x,z) :- H1(x,h), H2(h,z), L(h,y0), …, L(h,y{k-1}) to work linear in
// k, whatever the relation names: with the head atoms sorting before
// the leaves (A/B), after them (Y/Z), around them (A/M), and with every
// atom on one relation (E). The plan roots its tree at the head atoms
// and the leaves hang below as existence checks, so no search binds a
// leaf's y. Each leg — Eval, Stream, the exact count, an IncrState
// insert delta and the estimated count — runs under a deadline, and the
// index probes it adds (semijoin rows plus search rows) stay within a
// bound linear in k; a search binding the leaves probes 16^k rows.
func TestLeafChainPolynomial(t *testing.T) {
	for _, v := range []struct{ name, h1, h2, leaf string }{
		{"A/B", "A", "B", "L"},
		{"Y/Z", "Y", "Z", "L"},
		{"A/M", "A", "M", "L"},
		{"E", "E", "E", "E"},
	} {
		db := workload.LeafChainDB(v.h1, v.h2, v.leaf)
		var want Answers
		for z := 1; z <= 16; z++ {
			want = append(want, relstr.Tuple{17, z})
		}
		for _, par := range []int{1, 4} {
			for k := 1; k <= 12; k++ {
				q := workload.LeafChainQuery(k, v.h1, v.h2, v.leaf)
				p := NewPlan(q)
				sn := relstr.NewSnapshot(db)
				name := fmt.Sprintf("%s/par%d/k%d", v.name, par, k)
				bound := uint64(32 * (k + 2))
				leg := func(what string, run func(ctx context.Context) error) {
					t.Helper()
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					defer cancel()
					before := p.IndexStats().IndexProbes
					if err := run(ctx); err != nil {
						t.Fatalf("%s: %s: %v", name, what, err)
					}
					if n := p.IndexStats().IndexProbes - before; n > bound {
						t.Fatalf("%s: %s probed %d rows, want at most %d", name, what, n, bound)
					}
				}
				leg("Eval", func(ctx context.Context) error {
					ans, _, err := p.Eval(ctx, sn, Read{Par: par})
					if err == nil && !sameAnswers(ans, want) {
						err = fmt.Errorf("answers %v, want %v", ans, want)
					}
					return err
				})
				leg("Stream", func(ctx context.Context) error {
					seq, done := p.Stream(ctx, sn, Read{Par: par})
					n := 0
					for range seq {
						n++
					}
					if err := done(); err != nil {
						return err
					}
					if n != len(want) {
						return fmt.Errorf("streamed %d answers, want %d", n, len(want))
					}
					return nil
				})
				leg("Count", func(ctx context.Context) error {
					res, err := p.Count(ctx, sn, Read{Par: par})
					if err == nil && res.Count != uint64(len(want)) {
						err = fmt.Errorf("count %d, want %d", res.Count, len(want))
					}
					return err
				})
				leg("IncrState", func(ctx context.Context) error {
					return leafChainDelta(ctx, p, sn, v.h1, par)
				})
				leg("Estimate", func(ctx context.Context) error {
					res, err := p.Count(ctx, sn, Read{Par: par, Estimate: true})
					if err == nil && res.Count != uint64(len(want)) {
						err = fmt.Errorf("estimate %d, want %d", res.Count, len(want))
					}
					return err
				})
			}
		}
	}
}

// leafChainDelta builds p's incremental state on sn and inserts the
// head fact h1(18,0), which adds the answers (18, z): the delta must
// propagate without falling back and match the recomputed diff.
func leafChainDelta(ctx context.Context, p *Plan, sn *relstr.Snapshot, h1 string, par int) error {
	s, err := p.NewIncrState(ctx, sn, par)
	if err != nil {
		return err
	}
	d := relstr.NewDelta().Insert(h1, 18, 0)
	next, err := sn.Update(d)
	if err != nil {
		return err
	}
	diff, err := s.Apply(ctx, d, sn, next)
	if err != nil {
		return err
	}
	if diff.Fallback {
		return fmt.Errorf("delta fell back: %s", diff.Reason)
	}
	if len(diff.Added) != 16 || len(diff.Removed) != 0 || diff.Added[0][0] != 18 {
		return fmt.Errorf("diff +%v -%v, want the 16 answers (18, z)", diff.Added, diff.Removed)
	}
	return nil
}
