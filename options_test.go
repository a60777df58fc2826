package cqapprox

import (
	"context"
	"errors"
	"slices"
	"testing"

	"cqapprox/internal/workload"
)

// smokeGraph is the three-edge graph E = {(1,2),(2,1),(2,2)} the server
// smoke tests use.
func smokeGraph() *Structure {
	db := NewStructure()
	db.Add("E", 1, 2)
	db.Add("E", 2, 1)
	db.Add("E", 2, 2)
	return db
}

func equalTuples(a []Tuple, b Answers) bool {
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

// The ranked option surface end to end on the public API: ordered
// evaluation with early termination, descending, limit-only
// truncation, streaming equivalents, and the bound-query forms.
func TestEvalOptionsRanked(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	db := smokeGraph()
	p, err := engine.PrepareExact(ctx, MustParse("Q(x,y,z) :- E(x,y), E(y,z)"))
	if err != nil {
		t.Fatal(err)
	}

	ans, err := p.Eval(ctx, db, WithOrder("z", "y", "x"), WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	want := Answers{{1, 2, 1}, {2, 2, 1}, {2, 1, 2}}
	if !equalTuples([]Tuple(ans), want) {
		t.Fatalf("ranked Eval = %v, want %v", ans, want)
	}

	// Descending of the full key is the reverse of ascending.
	asc, err := p.Eval(ctx, db, WithOrder("z", "y", "x"))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := p.Eval(ctx, db, WithOrder("z", "y", "x"), WithDescending())
	if err != nil {
		t.Fatal(err)
	}
	rev := slices.Clone([]Tuple(asc))
	slices.Reverse(rev)
	if !equalTuples(rev, desc) {
		t.Fatalf("descending is not the reverse of ascending:\n  asc  %v\n  desc %v", asc, desc)
	}

	// Limit-only: the first k of the canonical sorted order.
	full, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	top2, err := p.Eval(ctx, db, WithLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples([]Tuple(top2), full[:2]) {
		t.Fatalf("limit-only Eval = %v, want %v", top2, full[:2])
	}

	// The ordered stream delivers the same sequence as ranked Eval.
	var streamed []Tuple
	seq, errf := p.Bind(Borrow(db)).AnswersErr(ctx, WithOrder("z", "y", "x"), WithLimit(3))
	for tup := range seq {
		streamed = append(streamed, tup)
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if !equalTuples(streamed, want) {
		t.Fatalf("ranked stream = %v, want %v", streamed, want)
	}

	// Limit-only stream: an arbitrary prefix of exactly k answers.
	n := 0
	for range p.Bind(Borrow(db)).Answers(ctx, WithLimit(2)) {
		n++
	}
	if n != 2 {
		t.Fatalf("limit-only stream delivered %d answers, want 2", n)
	}

	// Bound-query forms agree.
	d, _, err := engine.RegisterDB("smoke", db)
	if err != nil {
		t.Fatal(err)
	}
	bans, err := p.Bind(d).Eval(ctx, WithOrder("z", "y", "x"), WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples([]Tuple(bans), want) {
		t.Fatalf("bound ranked Eval = %v, want %v", bans, want)
	}
	streamed = streamed[:0]
	bseq, berrf := p.Bind(d).AnswersErr(ctx, WithOrder("z", "y", "x"), WithLimit(3))
	for tup := range bseq {
		streamed = append(streamed, tup)
	}
	if err := berrf(); err != nil {
		t.Fatal(err)
	}
	if !equalTuples(streamed, want) {
		t.Fatalf("bound ranked stream = %v, want %v", streamed, want)
	}

	if st := p.IndexStats(); st.RankedEvals == 0 {
		t.Fatalf("ranked evaluations left no RankedEvals trace: %+v", st)
	}
}

// Invalid order variables surface ErrBadOrder from every ordered entry
// point: Eval returns it, the streams yield nothing and report it from
// the terminal-error accessor.
func TestEvalOptionsBadOrder(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	db := smokeGraph()
	p, err := engine.PrepareExact(ctx, MustParse("Q(x,y) :- E(x,y)"))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := p.Eval(ctx, db, WithOrder("nope")); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("unknown order var: got %v, want ErrBadOrder", err)
	}
	if _, err := p.Eval(ctx, db, WithOrder("x", "x")); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("repeated order var: got %v, want ErrBadOrder", err)
	}
	seq, errf := p.Bind(Borrow(db)).AnswersErr(ctx, WithOrder("nope"))
	for range seq {
		t.Fatal("invalid order yielded an answer")
	}
	if err := errf(); !errors.Is(err, ErrBadOrder) {
		t.Fatalf("stream with unknown order var: got %v, want ErrBadOrder", err)
	}
}

// WithEvalParallelism is the per-call worker budget: identical
// answers, with or without ranking, on the traced entry point too, and
// it composes with the counting family (shared option config).
func TestEvalOptionsParallelism(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	db := workload.EvalBenchDB(300)
	p, err := engine.PrepareExact(ctx, workload.ChainQuery(4))
	if err != nil {
		t.Fatal(err)
	}

	serial, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	viaOption, err := p.Eval(ctx, db, WithEvalParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	viaTrace, tr, err := p.EvalTrace(ctx, db, WithEvalParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples([]Tuple(viaOption), serial) || !equalTuples([]Tuple(viaTrace), serial) {
		t.Fatalf("parallel answers diverge: serial %d, option %d, traced %d",
			len(serial), len(viaOption), len(viaTrace))
	}
	if tr.Parallelism != 4 {
		t.Fatalf("traced call ran with budget %d, want 4", tr.Parallelism)
	}

	// Ranked + parallel still matches ranked serial.
	rs, err := p.Eval(ctx, db, WithDescending(), WithLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := p.Eval(ctx, db, WithDescending(), WithLimit(10), WithEvalParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if !equalTuples([]Tuple(rp), rs) {
		t.Fatalf("ranked parallel = %v, ranked serial = %v", rp, rs)
	}

	// Shared plumbing: WithTrace and WithEvalParallelism compose on a
	// counting call exactly like on an evaluation.
	res, err := p.Bind(Borrow(db)).Count(ctx, WithTrace(), WithEvalParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("WithTrace on Count left no trace")
	}
	if res.Count != uint64(len(serial)) {
		t.Fatalf("parallel traced Count = %d, want %d", res.Count, len(serial))
	}
}
