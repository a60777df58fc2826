package cqapprox

import (
	"context"
	"slices"
	"sync"
	"testing"

	"cqapprox/internal/workload"
)

// sameAnswerSets compares two answer sets element-wise (both arrive
// sorted and deduplicated).
func sameAnswerSets(a, b Answers) bool {
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

// The acceptance property of the snapshot API: repeated evaluations
// against a registered database perform zero additional index builds
// after the first (warming) one — the per-call indexing cost moved
// into the snapshot's shared cache. Chain and star plans are direct —
// their answer search scans the root's live rows and probes nothing —
// and every one of their semijoin keys is one column of dense ids, so
// they build no index at all: each step tests a dense key summary. The TW(1)
// approximation of the free 4-cycle, E(x0,x1), E(x1,x0), joins on a
// two-column key, which a dense summary serves too; on the same graph
// with every id shifted out of the dense bound only the index does, so
// that is the query and database that warm and then reuse the cache.
func TestRegisteredDBIndexReuse(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	dense := workload.EvalBenchDB(300)
	shifted := shiftOut(dense)
	d, _, err := engine.RegisterDB("bench", dense)
	if err != nil {
		t.Fatal(err)
	}
	ds, _, err := engine.RegisterDB("shifted", shifted)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q        *Query
		class    Class // nil: exact
		shifted  bool
		noBuilds bool
	}{
		{workload.ChainQuery(6), nil, false, true},
		{workload.StarQuery(5), nil, false, true},
		{workload.CycleQueryFree(4), TW(1), false, true},
		{workload.CycleQueryFree(4), TW(1), true, false},
	} {
		q := c.q
		db, d := dense, d
		if c.shifted {
			db, d = shifted, ds
		}
		var p *PreparedQuery
		var err error
		if c.class == nil {
			p, err = engine.PrepareExact(ctx, q)
		} else {
			p, err = engine.Prepare(ctx, q, c.class)
		}
		if err != nil {
			t.Fatal(err)
		}
		b := p.Bind(d)
		want, err := p.Eval(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Eval(ctx) // warming evaluation: may build shared indexes
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswerSets(got, want) {
			t.Fatalf("%s: snapshot answers differ (%d vs %d)", q.Name, len(got), len(want))
		}
		base := p.IndexStats()
		const reps = 5
		for i := 0; i < reps; i++ {
			if _, err := b.Eval(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := b.EvalBool(ctx); err != nil {
				t.Fatal(err)
			}
		}
		warm := p.IndexStats()
		if warm.IndexBuilds != base.IndexBuilds {
			t.Fatalf("%s: warm evaluations built %d indexes, want 0",
				q.Name, warm.IndexBuilds-base.IndexBuilds)
		}
		if warm.Evals != base.Evals+2*reps {
			t.Fatalf("%s: evals %d -> %d, want +%d", q.Name, base.Evals, warm.Evals, 2*reps)
		}
		if warm.IndexProbes == base.IndexProbes {
			t.Fatalf("%s: warm evaluations did no probing at all", q.Name)
		}
		if c.noBuilds && warm.IndexBuilds != 0 {
			t.Fatalf("%s: built %d indexes, want none (every key is dense)", q.Name, warm.IndexBuilds)
		}

		// Streaming against the snapshot enumerates the same set.
		var streamed Answers
		for tup := range b.Answers(ctx) {
			streamed = append(streamed, tup)
		}
		slices.SortFunc(streamed, func(a, b Tuple) int { return compareTuples(a, b) })
		if !sameAnswerSets(streamed, want) {
			t.Fatalf("%s: streamed %d answers, want %d", q.Name, len(streamed), len(want))
		}
	}
	if st := d.Stats(); st.IndexBuilds != 0 {
		t.Fatalf("dense snapshot built indexes: %+v", st)
	}
	if st := ds.Stats(); st.IndexBuilds == 0 || st.IndexHits == 0 || st.IndexesCached == 0 {
		t.Fatalf("snapshot cache never exercised: %+v", st)
	}
}

// shiftOut returns db with every value moved far above the executor's
// dense key bound, so every semijoin step on it probes a view index.
// The shift is injective, so every answer count is unchanged.
func shiftOut(db *Structure) *Structure {
	out := NewStructure()
	for _, name := range db.Relations() {
		out.Declare(name, db.Arity(name))
		for _, t := range db.Tuples(name) {
			vals := make([]int, len(t))
			for i, v := range t {
				vals[i] = v + 1<<40
			}
			out.Add(name, vals...)
		}
	}
	return out
}

func compareTuples(a, b Tuple) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Engine registry semantics: lookup counting, replacement, LRU
// eviction, updates, drop, and what the two reset levels clear.
func TestEngineDBRegistry(t *testing.T) {
	engine := NewEngine(WithDBCapacity(2))
	ctx := context.Background()

	if _, _, err := engine.RegisterDB("", testDB()); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := engine.RegisterDB("a", nil); err == nil {
		t.Fatal("nil database accepted")
	}

	da, replaced, err := engine.RegisterDB("a", testDB())
	if err != nil {
		t.Fatal(err)
	}
	if replaced {
		t.Fatal("first registration reported replaced")
	}
	if da2, replaced, err := engine.RegisterDB("a", testDB()); err != nil || !replaced {
		t.Fatalf("re-registration: replaced=%v, err=%v", replaced, err)
	} else if da2.Version() <= da.Version() {
		t.Fatal("re-registration did not advance the version")
	}
	if _, ok := engine.DB("a"); !ok {
		t.Fatal("a not found")
	}
	if _, ok := engine.DB("nope"); ok {
		t.Fatal("phantom registration")
	}

	// Update applies copy-on-write and replaces the registration.
	db2, err := engine.UpdateDB("a", NewDelta().Insert("E", 100, 101))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Version() <= da.Version() || db2.Name() != "a" {
		t.Fatalf("update fork: version %d vs %d, name %q", db2.Version(), da.Version(), db2.Name())
	}
	cur, _ := engine.DB("a")
	if cur != db2 {
		t.Fatal("registry still serves the pre-update snapshot")
	}
	p, err := engine.PrepareExact(ctx, MustParse("Q(x,y) :- E(x,y)"))
	if err != nil {
		t.Fatal(err)
	}
	if ans, _ := p.Bind(db2).Eval(ctx); !ans.Contains(Tuple{100, 101}) {
		t.Fatal("update not visible in the fork")
	}
	if ans, _ := p.Bind(da).Eval(ctx); ans.Contains(Tuple{100, 101}) {
		t.Fatal("update leaked into the immutable original")
	}
	if _, err := engine.UpdateDB("ghost", NewDelta().Insert("E", 1, 1)); err == nil {
		t.Fatal("update of unregistered name accepted")
	}

	// LRU eviction at capacity 2: registering c evicts the least
	// recently used (b — "a" was just looked up).
	if _, _, err := engine.RegisterDB("b", testDB()); err != nil {
		t.Fatal(err)
	}
	engine.DB("a")
	if _, _, err := engine.RegisterDB("c", testDB()); err != nil {
		t.Fatal(err)
	}
	if _, ok := engine.DB("b"); ok {
		t.Fatal("LRU kept the stale entry")
	}
	if _, ok := engine.DB("a"); !ok {
		t.Fatal("LRU evicted the recently used entry")
	}
	st := engine.DBStats()
	if st.Entries != 2 || st.Evictions != 1 || st.Registered != 4 || st.Updates != 1 {
		t.Fatalf("registry stats = %+v", st)
	}

	// ResetCache leaves the registry (and the key memo) alone …
	engine.ResetCache()
	if _, ok := engine.DB("a"); !ok {
		t.Fatal("ResetCache dropped the registry")
	}
	// … ResetAll clears it.
	engine.ResetAll()
	if _, ok := engine.DB("a"); ok {
		t.Fatal("ResetAll left a registration behind")
	}
	if st := engine.DBStats(); st.Entries != 0 || st.Registered != 0 || st.Hits != 0 {
		t.Fatalf("registry stats after ResetAll = %+v", st)
	}

	// DropDB removes exactly the named entry; handed-out snapshots
	// stay usable.
	if _, _, err := engine.RegisterDB("d", testDB()); err != nil {
		t.Fatal(err)
	}
	if !engine.DropDB("d") || engine.DropDB("d") {
		t.Fatal("DropDB misreported")
	}
	if ok, _ := p.Bind(da).EvalBool(ctx); !ok {
		t.Fatal("dropped-era snapshot no longer evaluates")
	}
}

// Many goroutines evaluate different prepared queries against one
// shared snapshot while the registered name concurrently forks new
// versions — the -race proof that snapshots are immutable, the index
// cache is concurrency-safe, and updates never disturb readers.
func TestConcurrentSnapshotEvalAndUpdate(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	base := workload.EvalBenchDB(120)
	d, _, err := engine.RegisterDB("shared", base)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"Q(a) :- E(a,b), E(b,c), E(c,d)",
		"Q(c) :- R1(c,l1), R2(c,l2)",
		"Q() :- E(x,y), E(y,x)",
		"Q(x,z) :- E(x,y), E(y,z)",
	}
	prepared := make([]*PreparedQuery, len(queries))
	wantLens := make([]int, len(queries))
	for i, src := range queries {
		p, err := engine.PrepareExact(ctx, MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		prepared[i] = p
		want, err := p.Bind(d).Eval(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wantLens[i] = len(want)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, p := range prepared {
		wg.Add(1)
		go func(i int, p *PreparedQuery) {
			defer wg.Done()
			b := p.Bind(d)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// The pinned snapshot must keep answering identically no
				// matter how many forks the registry has moved through.
				ans, err := b.Eval(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ans) != wantLens[i] {
					t.Errorf("query %d: snapshot answers changed under concurrent updates: %d vs %d",
						i, len(ans), wantLens[i])
					return
				}
				// And the current version must evaluate cleanly too.
				if cur, ok := engine.DB("shared"); ok {
					if _, err := p.Bind(cur).Eval(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(i, p)
	}
	for k := 0; k < 25; k++ {
		delta := NewDelta().Insert("E", 10_000+k, 10_001+k)
		if k%3 == 0 {
			delta.Delete("E", 10_000+k-3, 10_001+k-3)
		}
		if _, err := engine.UpdateDB("shared", delta); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// One BoundQuery with a parallel worker budget, hammered from many
// goroutines while UpdateDB keeps forking new snapshot versions — the
// -race proof for the morsel-driven executor: per-call forests are
// independent, the shared snapshot index cache tolerates concurrent
// parallel probes, and answers never waver. (CI runs this under -race
// with GOMAXPROCS=4 in the dedicated eval job.)
func TestParallelBoundQueryRaceWithUpdates(t *testing.T) {
	engine := NewEngine()
	ctx := context.Background()
	d, _, err := engine.RegisterDB("par", workload.EvalBenchDB(200))
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.PrepareExact(ctx, MustParse("Q(a) :- E(a,b), E(b,c), E(c,d)"))
	if err != nil {
		t.Fatal(err)
	}
	b := p.Bind(d)
	par := WithEvalParallelism(4)
	want, err := b.Eval(ctx, par)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := p.Bind(d).Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAnswerSets(want, serial) {
		t.Fatalf("parallel bound answers differ from serial: %d vs %d", len(want), len(serial))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch g % 3 {
				case 0:
					ans, err := b.Eval(ctx, par)
					if err != nil || !sameAnswerSets(ans, want) {
						t.Errorf("parallel eval diverged under updates (err %v, %d answers)", err, len(ans))
						return
					}
				case 1:
					if ok, err := b.EvalBool(ctx, par); err != nil || ok != (len(want) > 0) {
						t.Errorf("parallel bool diverged: %v, %v", ok, err)
						return
					}
				default:
					n := 0
					for range b.Answers(ctx, par) {
						n++
					}
					if n != len(want) {
						t.Errorf("parallel stream yielded %d answers, want %d", n, len(want))
						return
					}
				}
			}
		}(g)
	}
	for k := 0; k < 20; k++ {
		delta := NewDelta().Insert("E", 50_000+k, 50_001+k).Insert("R1", 50_000+k, 50_001+k)
		if _, err := engine.UpdateDB("par", delta); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := p.IndexStats(); st.ParallelEvals == 0 {
		t.Fatalf("parallel evaluations not counted: %+v", st)
	}
}

// Inline evaluations borrow the caller's structure instead of copying
// it: identity atom views share its tuples. Many goroutines evaluate
// one shared *Structure through every inline entry point at once, each
// result held to the naive oracle; afterwards the caller grows the
// structure, and answers returned earlier must neither change nor
// share storage with its tuples.
func TestInlineSharedStructure(t *testing.T) {
	ctx := context.Background()
	engine := NewEngine()
	db := workload.EvalBenchDB(24)
	queries := []string{
		"Q(x,y) :- E(x,y)",                   // identity view straight to the head
		"Q(x) :- E(x,x)",                     // repetition-pattern view
		"Q(a) :- E(a,b), E(b,c), E(c,d)",     // projecting chain
		"Q(x,z) :- E(x,y), E(y,z), R1(y,u)",  // two relations
		"Q() :- E(x,y), E(y,x)",              // Boolean
		"Q(x) :- E(x,y), E(y,z), E(z,x)",     // cyclic: bag plan
		"Q(x,y,z) :- E(x,y), E(y,z), E(z,x)", // cyclic, full head
	}
	type fixture struct {
		p    *PreparedQuery
		head []string
		want Answers
	}
	fixtures := make([]fixture, len(queries))
	for i, src := range queries {
		q := MustParse(src)
		p, err := engine.PrepareExact(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		fixtures[i] = fixture{p: p, head: q.Head, want: NaiveEval(q, db)}
	}

	check := func(f fixture, what string, got Answers) {
		if !sameAnswerSets(got, f.want) {
			t.Errorf("%s of %v: %d answers, naive %d", what, f.p.Query(), len(got), len(f.want))
		}
	}
	const workers = 8
	kept := make([][]Answers, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for _, f := range fixtures {
					ans, err := f.p.Eval(ctx, db)
					if err != nil {
						t.Error(err)
						return
					}
					check(f, "Eval", ans)
					kept[w] = append(kept[w], ans)

					ok, err := f.p.Bind(Borrow(db)).EvalBool(ctx)
					if err != nil || ok != (len(f.want) > 0) {
						t.Errorf("EvalBool of %v = %v, %v; naive has %d answers", f.p.Query(), ok, err, len(f.want))
					}
					res, err := f.p.Bind(Borrow(db)).Count(ctx)
					if err != nil || res.Count != uint64(len(f.want)) {
						t.Errorf("Count of %v = %+v, %v; naive %d", f.p.Query(), res, err, len(f.want))
					}
					var streamed Answers
					for tup := range f.p.Bind(Borrow(db)).Answers(ctx) {
						streamed = append(streamed, tup)
					}
					slices.SortFunc(streamed, compareTuples)
					check(f, "Answers", streamed)
					kept[w] = append(kept[w], streamed)

					traced, _, err := f.p.EvalTrace(ctx, db)
					if err != nil {
						t.Error(err)
						return
					}
					check(f, "EvalTrace", traced)
					if len(f.head) > 0 {
						ranked, err := f.p.Eval(ctx, db, WithOrder(f.head...), WithLimit(len(f.want)+1))
						if err != nil {
							t.Error(err)
							return
						}
						check(f, "ranked Eval", ranked)
						kept[w] = append(kept[w], ranked)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	frozen := make([][]Answers, workers)
	for w, sets := range kept {
		for _, ans := range sets {
			cp := make(Answers, len(ans))
			for i, tup := range ans {
				cp[i] = tup.Clone()
			}
			frozen[w] = append(frozen[w], cp)
		}
	}
	for k := 0; k < 100; k++ {
		db.Add("E", k%24, (k*7+3)%24)
		db.Add("E", 1000+k, 1000+k)
	}
	tuples := map[*int]bool{}
	for _, rel := range db.Relations() {
		for _, tup := range db.Tuples(rel) {
			tuples[&tup[0]] = true
		}
	}
	for w, sets := range kept {
		for i, ans := range sets {
			if !sameAnswerSets(ans, frozen[w][i]) {
				t.Fatalf("worker %d result %d changed when the caller grew the structure", w, i)
			}
			for _, tup := range ans {
				if len(tup) > 0 && tuples[&tup[0]] {
					t.Fatalf("worker %d result %d: answer %v shares storage with a database tuple", w, i, tup)
				}
			}
		}
	}
	// A fresh call sees the grown structure.
	for _, f := range fixtures {
		got, err := f.p.Eval(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		if want := NaiveEval(f.p.Query(), db); !sameAnswerSets(got, want) {
			t.Fatalf("Eval of %v after growth: %d answers, naive %d", f.p.Query(), len(got), len(want))
		}
	}
}
