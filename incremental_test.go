package cqapprox

import (
	"context"
	"testing"

	"cqapprox/internal/workload"
)

// applyDiff replays a diff onto a copy of the previous answer set and
// compares against want — added/removed must reconstruct the new set
// exactly.
func applyDiff(t *testing.T, prev Answers, d *AnswerDiff, want Answers) {
	t.Helper()
	set := map[string]Tuple{}
	for _, a := range prev {
		set[string(a.Key())] = a
	}
	for _, r := range d.Removed {
		if _, ok := set[string(r.Key())]; !ok {
			t.Fatalf("diff removes %v which was not present", r)
		}
		delete(set, string(r.Key()))
	}
	for _, a := range d.Added {
		if _, ok := set[string(a.Key())]; ok {
			t.Fatalf("diff adds %v which was already present", a)
		}
		set[string(a.Key())] = a
	}
	if len(set) != len(want) {
		t.Fatalf("replayed %d answers, want %d", len(set), len(want))
	}
	for _, w := range want {
		if _, ok := set[string(w.Key())]; !ok {
			t.Fatalf("replayed set misses %v", w)
		}
	}
}

func TestIncrementalEvalMaintainsAnswers(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	p, err := e.PrepareExact(ctx, workload.ChainQuery(3))
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := e.RegisterDB("g", workload.EvalBenchDB(200))
	if err != nil {
		t.Fatal(err)
	}
	ie, err := p.Bind(db).Incremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !ie.Supported() {
		t.Fatal("chain plan should support incremental maintenance")
	}
	fresh, err := p.Bind(db).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ie.Answers()) != len(fresh) {
		t.Fatalf("initial maintained set has %d answers, fresh eval %d", len(ie.Answers()), len(fresh))
	}

	// Drive updates through the engine registry and advance with the
	// atomic (prev, next, delta) triple from ApplyDB.
	deltas := []*Delta{
		NewDelta().Insert("E", 1000, 1001).Insert("E", 1001, 1002).Insert("E", 1002, 1003),
		NewDelta().Delete("E", 0, 1),
		NewDelta().Delete("E", 1000, 1001).Insert("E", 7, 0),
	}
	for i, d := range deltas {
		prev := ie.Answers()
		u, err := e.ApplyDB("g", d)
		if err != nil {
			t.Fatal(err)
		}
		if u.Prev.Version() != ie.Version() {
			t.Fatalf("step %d: ApplyDB prev version %d, state %d", i, u.Prev.Version(), ie.Version())
		}
		diff, err := ie.Advance(ctx, u.Next, u.Delta)
		if err != nil {
			t.Fatal(err)
		}
		if diff.Fallback {
			t.Fatalf("step %d: unexpected fallback: %s", i, diff.Reason)
		}
		want, err := p.Bind(u.Next).Eval(ctx)
		if err != nil {
			t.Fatal(err)
		}
		applyDiff(t, prev, diff, want)
		if diff.Version != u.Next.Version() || ie.Version() != u.Next.Version() {
			t.Fatalf("step %d: versions diverge: diff %d, state %d, db %d",
				i, diff.Version, ie.Version(), u.Next.Version())
		}
	}
	st := e.CacheStats()
	if st.Indexes.IncrementalEvals != uint64(len(deltas)) || st.Indexes.IncrFallbacks != 0 {
		t.Fatalf("cache stats = %+v, want %d incremental evals", st.Indexes, len(deltas))
	}

	// A wholesale replacement (nil delta) resynchronises with an exact
	// diff and counts as a fallback.
	prev := ie.Answers()
	repl, _, err := e.RegisterDB("g", workload.EvalBenchDB(50))
	if err != nil {
		t.Fatal(err)
	}
	diff, err := ie.Advance(ctx, repl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !diff.Fallback {
		t.Fatal("replacement should report a fallback resync")
	}
	want, err := p.Bind(repl).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	applyDiff(t, prev, diff, want)
	if st := e.CacheStats(); st.Indexes.IncrFallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", st.Indexes.IncrFallbacks)
	}
}

// Update forks the snapshot and advances in one step, without the
// engine registry.
func TestIncrementalEvalUpdate(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	p, err := e.PrepareExact(ctx, workload.ChainQuery(2))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStructure()
	s.Add("E", 1, 2)
	s.Add("E", 2, 3)
	ie, err := p.Bind(Snapshot(s)).Incremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	next, diff, err := ie.Update(ctx, NewDelta().Insert("E", 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if diff.Empty() || diff.Fallback {
		t.Fatalf("diff = %+v", diff)
	}
	want, err := p.Bind(next).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ie.Answers()) != len(want) {
		t.Fatalf("maintained %d answers, fresh %d", len(ie.Answers()), len(want))
	}
	if ie.Database() != next {
		t.Fatal("Database() should return the advanced snapshot")
	}
}

// A maintained query driven through single-tuple inserts and deletes
// on the chain and star shapes advances every step without fallback,
// each diff replays exactly onto the previous answers, and the
// maintained answers stay byte-identical to a fresh evaluation. The
// deltas touch fresh values beyond the generated range, so their join
// neighbourhoods are small; the chain delta builds a whole 3-chain and
// the star delta a complete center, so answers really appear and
// vanish. The last step deletes the first base fact, a possible hub:
// it may exceed the work budget and fall back, and must be exact
// either way.
func TestIncrementalEvalSingleTupleSequence(t *testing.T) {
	const n = 300
	ctx := context.Background()
	e := NewEngine()
	base := workload.EvalBenchDB(n)
	db0 := Snapshot(base)
	cases := []struct {
		name, src, rel string
		deltas         []*Delta
	}{
		{"chain3", "Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)", "E", []*Delta{
			NewDelta().Insert("E", n+10, n+11).Insert("E", n+11, n+12).Insert("E", n+12, n+13),
			NewDelta().Delete("E", n+11, n+12),
			NewDelta().Insert("E", n+11, n+12),
			NewDelta().Delete("E", n+10, n+11).Delete("E", n+11, n+12).Delete("E", n+12, n+13),
		}},
		{"star3", "Q(c) :- R1(c,l1), R2(c,l2), R3(c,l3)", "R1", []*Delta{
			NewDelta().Insert("R1", n+10, 1).Insert("R2", n+10, 2).Insert("R3", n+10, 3),
			NewDelta().Delete("R2", n+10, 2),
			NewDelta().Insert("R2", n+10, 2),
			NewDelta().Delete("R1", n+10, 1).Delete("R2", n+10, 2).Delete("R3", n+10, 3),
		}},
	}
	for _, c := range cases {
		p, err := e.PrepareExact(ctx, MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		ie, err := p.Bind(db0).Incremental(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ie.Supported() {
			t.Fatalf("%s: plan does not support incremental maintenance", c.name)
		}
		hub := base.Tuples(c.rel)[0]
		changed := 0
		for i, d := range append(c.deltas, NewDelta().Delete(c.rel, hub...)) {
			prev := ie.Answers()
			next, diff, err := ie.Update(ctx, d)
			if err != nil {
				t.Fatalf("%s step %d: %v", c.name, i, err)
			}
			if diff.Fallback && i < len(c.deltas) {
				t.Fatalf("%s step %d fell back: %s", c.name, i, diff.Reason)
			}
			if !diff.Empty() {
				changed++
			}
			fresh, err := p.Bind(next).Eval(ctx)
			if err != nil {
				t.Fatal(err)
			}
			applyDiff(t, prev, diff, fresh)
			if !sameAnswerSets(ie.Answers(), fresh) {
				t.Fatalf("%s step %d: maintained answers differ from fresh evaluation", c.name, i)
			}
		}
		if changed == 0 {
			t.Fatalf("%s: no delta changed the answer set", c.name)
		}
	}
}
