package eval

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cqapprox/internal/cq"
	"cqapprox/internal/relstr"
)

// sortedRows renders a relation's rows as a set for comparison.
func sortedRows(r rel) []relstr.Tuple {
	out := make([]relstr.Tuple, len(r.rows))
	for i, row := range r.rows {
		out[i] = relstr.Tuple(row).Clone()
	}
	slices.SortFunc(out, relstr.Compare)
	return out
}

func equalRows(a, b []relstr.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// cloneRel deep-copies a relation so in-place operators cannot alias.
func cloneRel(r rel) rel {
	out := rel{vars: append([]int{}, r.vars...)}
	for _, row := range r.rows {
		out.rows = append(out.rows, append([]int{}, row...))
	}
	return out
}

// decodeRels builds two relations with overlapping variable lists from
// fuzz bytes: small variable counts, a variable overlap chosen by the
// input, and rows over a tiny domain so hash collisions and duplicate
// keys actually occur.
func decodeRels(data []byte) (l, r rel, ok bool) {
	if len(data) < 3 {
		return rel{}, rel{}, false
	}
	nl := 1 + int(data[0])%3
	nr := 1 + int(data[1])%3
	shared := max(1, int(data[2])%(min(nl, nr)+1))
	data = data[3:]
	l.vars = make([]int, nl)
	for i := range l.vars {
		l.vars[i] = i
	}
	// r shares `shared` variables with l (the trailing ones, so the
	// aligned columns differ between the two sides), then fresh ids. At
	// least one is shared, as in every step of a schedule: each join
	// tree is one connected component.
	r.vars = make([]int, nr)
	for i := range r.vars {
		if i < shared {
			r.vars[i] = nl - shared + i
		} else {
			r.vars[i] = 100 + i
		}
	}
	fill := func(width int, nRows int) [][]int {
		var set relstr.TupleSet
		var rows [][]int
		for i := 0; i < nRows && len(data) >= width; i++ {
			row := make([]int, width)
			for j := range row {
				row[j] = int(data[j]) % 4
			}
			data = data[width:]
			if set.Add(row) {
				rows = append(rows, row)
			}
		}
		return rows
	}
	l.rows = fill(nl, 6)
	r.rows = fill(nr, 6)
	return l, r, true
}

// pairForest builds a two-node executor forest over l (node 0, the
// semijoin target) and r (node 1, the source), with the given view
// over r's rows and an all-alive bitmap on both sides. The
// tuning fields force the morsel machinery on tiny inputs when par>1.
func pairForest(l, r rel, rv *relstr.View, par int) *forest {
	f := &forest{nodes: make([]execNode, 2), par: par, minPar: 1, morsel: 2}
	f.nodes[0] = execNode{rows: l.rows, vars: l.vars, view: relstr.NewView(l.rows), words: allAlive(len(l.rows)), live: len(l.rows)}
	f.nodes[1] = execNode{rows: r.rows, vars: r.vars, view: rv, words: allAlive(len(r.rows)), live: len(r.rows)}
	f.initSlots()
	return f
}

// snapView wraps r's rows as a genuine snapshot view, so the semijoin
// probes the snapshot's persistent index cache — the
// registered-database backend.
func snapView(r rel) *relstr.View {
	sdb := relstr.New()
	if len(r.rows) == 0 {
		sdb.Declare("R", len(r.vars))
	}
	for _, row := range r.rows {
		sdb.Add("R", row...)
	}
	snap := relstr.NewSnapshot(sdb)
	pat := make([]int, len(r.vars))
	for i := range pat {
		pat[i] = i
	}
	return snap.View("R", pat)
}

// semijoinVia runs one scheduled semijoin of l against r through the
// executor with the given source view and worker budget,
// returning the surviving rows.
func semijoinVia(l, r rel, lCols, rCols []int, rv *relstr.View, par int) [][]int {
	f := pairForest(l, r, rv, par)
	f.semijoin(sjStep{target: 0, source: 1, tCols: lCols, sCols: rCols})
	return f.nodes[0].aliveRows()
}

// allAlive returns an n-row bitmap with every row live.
func allAlive(n int) []uint64 {
	words := make([]uint64, (n+63)/64)
	fillAlive(words, n)
	return words
}

// FuzzJoinEquivalence asserts the executor's semijoin agrees with the
// string-keyed reference implementation it replaced, on arbitrary
// relation pairs sharing at least one variable (including empty
// relations and tiny value domains that force bucket collisions). The semijoin
// is held to the oracle through three views: a standalone view
// (NewView, as incremental maintenance builds over its seed rows), a
// snapshot view (the evaluation path), and the standalone view again
// under a parallel worker budget with the morsel size forced down to
// two rows.
// Relabelled legs (values shifted by 2^40, and negated) push every key
// outside the dense bound, so the index fallback meets the oracle as
// well as the dense kernel.
func FuzzJoinEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0})                                  // empty relations
	f.Add([]byte{1, 1, 1, 1, 2, 2, 1, 3, 3})                // small overlap
	f.Add([]byte{2, 2, 0, 0, 1, 2, 1, 0, 2, 2, 0, 1})       // one shared var, empty source
	f.Add([]byte{2, 2, 2, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 2}) // full overlap
	f.Add([]byte{0, 2, 1, 3, 3, 3, 3, 2, 1, 0, 3, 1, 2, 0}) // collisions
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r, ok := decodeRels(data)
		if !ok {
			t.Skip()
		}
		lCols, rCols := sharedCols(l.vars, r.vars)
		want := sortedRows(semijoinRef(cloneRel(l), r))
		legs := []struct {
			name string
			view *relstr.View
			par  int
		}{
			{"standalone", relstr.NewView(r.rows), 1},
			{"snapshot", snapView(r), 1},
			{"parallel", relstr.NewView(r.rows), 4},
		}
		for _, leg := range legs {
			got := sortedRows(rel{vars: l.vars, rows: semijoinVia(l, r, lCols, rCols, leg.view, leg.par)})
			if !equalRows(got, want) {
				t.Fatalf("%s semijoin mismatch:\n  executor %v\n  reference %v\n  l=%v r=%v", leg.name, got, want, l, r)
			}
		}
		// The tiny domain keeps every one-column key dense; the same
		// pair relabelled past the dense bound and below zero holds the
		// index fallback to the oracle too.
		for _, lb := range fallbackLabels {
			ml, mr := relabelRel(l, lb.f), relabelRel(r, lb.f)
			want := sortedRows(semijoinRef(cloneRel(ml), mr))
			for _, par := range []int{1, 4} {
				got := sortedRows(rel{vars: ml.vars, rows: semijoinVia(ml, mr, lCols, rCols, relstr.NewView(mr.rows), par)})
				if !equalRows(got, want) {
					t.Fatalf("%s semijoin mismatch (par=%d):\n  executor %v\n  reference %v\n  l=%v r=%v", lb.name, par, got, want, ml, mr)
				}
			}
		}
	})
}

// tunedForest builds the plan's forest on src with the parallel
// thresholds forced down, so even request-sized fuzz inputs drive the
// morsel fan-out.
func (p *Plan) tunedForest(src *relstr.Snapshot, par int) *forest {
	f := p.newForest(src, par)
	f.minPar, f.morsel = 1, 2
	return f
}

// evalTuned is a plain Eval over a tuned forest.
func (p *Plan) evalTuned(ctx context.Context, src *relstr.Snapshot, par int) (Answers, error) {
	if p.mode != PlanYannakakis {
		ans, _, err := p.Eval(ctx, src, Read{Par: par})
		return ans, err
	}
	f := p.tunedForest(src, par)
	defer p.flush(f)
	var s answerSlab
	if err := p.search(ctx, src, f, s.add, &s); err != nil {
		return nil, err
	}
	return s.answers(len(p.tb.Dist)), nil
}

// evalBoolTuned is evalTuned for answer existence.
func (p *Plan) evalBoolTuned(ctx context.Context, src *relstr.Snapshot, par int) (bool, error) {
	if p.mode != PlanYannakakis {
		ok, _, err := p.Bool(ctx, src, Read{Par: par})
		return ok, err
	}
	f := p.tunedForest(src, par)
	defer p.flush(f)
	return p.exists(ctx, src, f)
}

// streamSet drains p's stream on src under worker budget par and
// returns its answers sorted, failing if the stream errs or repeats an
// answer.
func streamSet(ctx context.Context, p *Plan, src *relstr.Snapshot, par int) (Answers, error) {
	var seen relstr.TupleSet
	seq, errf := p.Stream(ctx, src, Read{Par: par})
	for a := range seq {
		if !seen.Add(a) {
			return nil, fmt.Errorf("stream repeats answer %v", a)
		}
	}
	if err := errf(); err != nil {
		return nil, err
	}
	return sortAnswers(seen.Rows()), nil
}

// FuzzParallelEquivalence asserts the parallel executor returns
// byte-identical answers to the serial one and to the string-keyed
// reference pipeline, across both storage backends (per-call structure
// and snapshot) and for both full and Boolean evaluation, on random
// acyclic queries and databases derived from the fuzz seed. The
// stream, as a set with no duplicates, matches the reference too.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		ctx := context.Background()
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 9)
		p := NewPlan(q)
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		serial, _, err := p.Eval(ctx, relstr.Borrow(db), Read{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(serial, want) {
			t.Fatalf("serial answers diverge from reference:\n  serial %v\n  reference %v\n  q=%v", serial, want, q)
		}
		snap := relstr.NewSnapshot(db)
		for _, par := range []int{2, 4} {
			for _, src := range []struct {
				name string
				s    *relstr.Snapshot
			}{{"struct", relstr.Borrow(db)}, {"snapshot", snap}} {
				got, err := p.evalTuned(ctx, src.s, par)
				if err != nil {
					t.Fatal(err)
				}
				if !sameAnswers(got, want) {
					t.Fatalf("parallel(%d)/%s answers diverge:\n  got %v\n  want %v\n  q=%v", par, src.name, got, want, q)
				}
				ok, err := p.evalBoolTuned(ctx, src.s, par)
				if err != nil {
					t.Fatal(err)
				}
				if ok != (len(want) > 0) {
					t.Fatalf("parallel(%d)/%s bool = %v with %d answers, q=%v", par, src.name, ok, len(want), q)
				}
			}
		}
		for _, par := range []int{1, 4} {
			for _, src := range []*relstr.Snapshot{relstr.Borrow(db), snap} {
				got, err := streamSet(ctx, p, src, par)
				if err != nil || !sameAnswers(got, want) {
					t.Fatalf("stream(%d) = %v (err %v), want %v, q=%v", par, got, err, want, q)
				}
			}
		}
	})
}

// The full pipelines agree across the table of storage backends ×
// worker budgets, against Plan.EvalBaseline (the string-keyed
// reference) as the oracle — and so do the Boolean variants. This is
// the one quickcheck covering every execution configuration the
// unified executor serves. The stream, as a set with no duplicates,
// matches the reference in each configuration.
func TestQuickIndexedMatchesBaseline(t *testing.T) {
	ctx := context.Background()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := randomQuery(rng, true)
		db := randomDB(rng, 5, 9)
		p := NewPlan(q)
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			return false
		}
		snap := relstr.NewSnapshot(db)
		sources := func() []*relstr.Snapshot {
			return []*relstr.Snapshot{relstr.Borrow(db), snap}
		}
		for _, par := range []int{1, 4} {
			for _, src := range sources() {
				got, err := p.evalTuned(ctx, src, par)
				if err != nil || !sameAnswers(got, want) {
					return false
				}
				ok, err := p.evalBoolTuned(ctx, src, par)
				if err != nil || ok != (len(want) > 0) {
					return false
				}
				streamed, err := streamSet(ctx, p, src, par)
				if err != nil || !sameAnswers(streamed, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Repeated variables in atoms and heads flow through the indexed
// runtime exactly as through the reference.
func TestIndexedRepeatedVariables(t *testing.T) {
	ctx := context.Background()
	cases := []string{
		"Q(x) :- E(x,x)",
		"Q(x,x) :- E(x,y), E(y,x)",
		"Q(x,y,x) :- E(x,y), E(y,z)",
		"Q() :- E(x,x), E(x,y)",
	}
	db := graphDB([2]int{0, 0}, [2]int{0, 1}, [2]int{1, 0}, [2]int{1, 2}, [2]int{3, 3})
	for _, src := range cases {
		q := cq.MustParse(src)
		p := NewPlan(q)
		if p.Mode() != PlanYannakakis {
			t.Fatalf("%s: expected acyclic plan", src)
		}
		got, _, err := p.Eval(ctx, relstr.Borrow(db), Read{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.EvalBaseline(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswers(got, want) {
			t.Fatalf("%s: indexed %v, reference %v", src, got, want)
		}
	}
}

// Empty relations empty the whole answer set, indexed and reference
// alike — including the no-shared-variables semijoin special case.
func TestIndexedEmptyRelations(t *testing.T) {
	ctx := context.Background()
	q := cq.MustParse("Q(x,u) :- E(x,y), F(u,v)")
	db := relstr.New()
	db.Declare("E", 2)
	db.Declare("F", 2)
	db.Add("E", 1, 2)
	// F is empty: the disconnected cross product must be empty.
	p := NewPlan(q)
	got, _, err := p.Eval(ctx, relstr.Borrow(db), Read{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("answers on empty F = %v", got)
	}
	ok, _, err := p.Bool(ctx, relstr.Borrow(db), Read{})
	if err != nil || ok {
		t.Fatalf("EvalBool = %v, %v", ok, err)
	}
	// Both relations empty.
	if got := Eval(q, relstr.New()); len(got) != 0 {
		t.Fatalf("answers on empty db = %v", got)
	}
}

// aliveRows materialises the surviving rows (headers shared with the
// view; rows are never mutated downstream).
func (n *execNode) aliveRows() [][]int {
	out := make([][]int, 0, n.live)
	for w, word := range n.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, n.rows[w<<6|b])
		}
	}
	return out
}
