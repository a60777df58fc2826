package cqapprox

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"cqapprox/internal/workload"
)

// Long write chains: a registered database takes the update_live
// shape — per step one insert and one delete of E, each forked by
// ApplyDB and advanced through a chain3 subscription — for enough
// steps to compact E at least twice. After every step each read of the
// current version must return exactly what it returns on a fresh
// snapshot of the same facts: the subscription's accumulated diffs,
// the TW(1) read of the free 4-cycle, the order of a stream's first
// answers, a ranked top-k with ties, and a seeded estimate, bit for
// bit.
func TestLongWriteChainMatchesFresh(t *testing.T) {
	ctx := context.Background()
	const n = 300
	raw := workload.EvalBenchDB(n)
	model := raw.Clone()
	eng := NewEngine()
	db, _, err := eng.RegisterDB("live", raw)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := eng.PrepareExact(ctx, MustParse("Q(x0) :- E(x0,x1), E(x1,x2), E(x2,x3)"))
	if err != nil {
		t.Fatal(err)
	}
	read, err := eng.Prepare(ctx, workload.CycleQueryFree(4), TW(1))
	if err != nil {
		t.Fatal(err)
	}
	path, err := eng.PrepareExact(ctx, MustParse("Q(x,z) :- E(x,y), E(y,z), R1(y,u)"))
	if err != nil {
		t.Fatal(err)
	}
	pair, err := eng.PrepareExact(ctx, MustParse("Q(x,z) :- E(x,y), R1(y,z)"))
	if err != nil {
		t.Fatal(err)
	}
	ie, err := chain.Bind(db).Incremental(ctx)
	if err != nil {
		t.Fatal(err)
	}
	subscribed := map[string]bool{}
	for _, a := range ie.Answers() {
		subscribed[a.Key()] = true
	}

	// reads returns every compared read of db, in a form compared
	// exactly.
	reads := func(db *Database) []any {
		tw1, err := read.Bind(db).Eval(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var stream []Tuple
		seq, errf := path.Bind(db).AnswersErr(ctx, WithLimit(100))
		for a := range seq {
			stream = append(stream, a)
		}
		if err := errf(); err != nil {
			t.Fatal(err)
		}
		topk, err := pair.Bind(db).Eval(ctx, WithOrder("z"), WithDescending(), WithLimit(7))
		if err != nil {
			t.Fatal(err)
		}
		est, err := pair.Bind(db).EstimateCount(ctx, WithSeed(11), WithMaxSamples(64))
		if err != nil {
			t.Fatal(err)
		}
		return []any{tw1, stream, topk, est.Estimate, est.Mode}
	}

	ops := newEdgeChurn(raw, n)
	compactions := 0
	for step := 0; compactions < 2; step++ {
		if step == 600 {
			t.Fatalf("E compacted %d times in %d steps, want 2", compactions, step)
		}
		ins, del := ops.next()
		for _, d := range []*Delta{NewDelta().Insert("E", ins[0], ins[1]), NewDelta().Delete("E", del[0], del[1])} {
			up, err := eng.ApplyDB("live", d)
			if err != nil {
				t.Fatal(err)
			}
			// A compacted version keeps no index of the relation: its
			// cache starts below the previous version's.
			if up.Next.Stats().IndexesCached < up.Prev.Stats().IndexesCached {
				compactions++
			}
			diff, err := ie.Advance(ctx, up.Next, up.Delta)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range diff.Removed {
				delete(subscribed, a.Key())
			}
			for _, a := range diff.Added {
				subscribed[a.Key()] = true
			}
			db = up.Next
		}
		model.Add("E", ins[0], ins[1])
		model.Remove("E", del[0], del[1])
		fresh := Snapshot(model)
		want, err := chain.Bind(fresh).Eval(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(subscribed) != len(want) || !reflect.DeepEqual(ie.Answers(), want) {
			t.Fatalf("step %d: subscription holds %d answers, fresh chain3 %d", step, len(subscribed), len(want))
		}
		for _, a := range want {
			if !subscribed[a.Key()] {
				t.Fatalf("step %d: accumulated diffs lack %v", step, a)
			}
		}
		if got, exp := reads(db), reads(fresh); !reflect.DeepEqual(got, exp) {
			t.Fatalf("step %d: reads of the version differ from a fresh snapshot:\n got %v\nwant %v", step, got, exp)
		}
	}
}

// Readers of one version — Eval, Has and index walks through its
// views — run while other goroutines fork branches off the same
// version and evaluate on them. The version starts with indexes
// carried from its parent, so readers and forks race to extend them,
// and sibling branches race for the parent's row tail.
func TestVersionForksRaceReads(t *testing.T) {
	ctx := context.Background()
	raw := workload.EvalBenchDB(120)
	base := Snapshot(raw)
	eng := NewEngine()
	var qs []*PreparedQuery // a bag plan and a forest plan
	for _, src := range []string{"Q(x,z) :- E(x,y), E(y,z), E(z,x)", "Q(x,z) :- E(x,y), E(y,z), R1(y,u)"} {
		p, err := eng.PrepareExact(ctx, MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Bind(base).Eval(ctx); err != nil { // indexes for the version to carry
			t.Fatal(err)
		}
		qs = append(qs, p)
	}
	ops := newEdgeChurn(raw, 120)
	ins, del := ops.next()
	v, err := base.Update(NewDelta().Insert("E", ins[0], ins[1]).Delete("E", del[0], del[1]))
	if err != nil {
		t.Fatal(err)
	}
	model := Snapshot(v.Contents())
	want := make([]Answers, len(qs))
	for i, p := range qs {
		if want[i], err = p.Bind(model).Eval(ctx); err != nil {
			t.Fatal(err)
		}
	}
	facts := v.Contents().Tuples("E")
	deltas := make([]*Delta, 8)
	for i := range deltas {
		a, b := ops.next()
		deltas[i] = NewDelta().Insert("E", a[0], a[1]).Delete("E", b[0], b[1])
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := (g + i) % len(qs)
				ans, err := qs[k].Bind(v).Eval(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(ans, want[k]) {
					t.Error("a version's answers changed while branches forked off it")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		iv := v.snap.View("E", []int{0, 1})
		for i, f := range facts {
			if !v.snap.Has("E", f...) {
				t.Errorf("Has%v false", f)
				return
			}
			cols := [][]int{{0}, {1}, {0, 1}, {1, 0}}[i%4]
			ix, _ := iv.Index(cols)
			found := false
			for id := ix.First(f, cols); id >= 0; id = ix.Next(id, f, cols) {
				found = found || Tuple(iv.Rows()[id]).Equal(f)
			}
			if !found {
				t.Errorf("index on %v misses %v", cols, f)
				return
			}
		}
	}()
	for _, d := range deltas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next, err := v.Update(d)
			if err != nil {
				t.Error(err)
				return
			}
			fresh := Snapshot(next.Contents())
			for _, p := range qs {
				got, err := p.Bind(next).Eval(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				exp, err := p.Bind(fresh).Eval(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, exp) {
					t.Error("a branch evaluates unlike a fresh snapshot of its facts")
				}
			}
		}()
	}
	wg.Wait()
}
