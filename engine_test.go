package cqapprox

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cqapprox/internal/workload"
)

func testDB() *Structure {
	db := NewStructure()
	edges := [][2]int{{1, 2}, {2, 3}, {3, 1}, {4, 5}, {5, 4}, {7, 7}}
	for _, e := range edges {
		db.Add("E", e[0], e[1])
	}
	return db
}

// Preparing the same query twice must not re-run the approximation
// search: the second Prepare is a cache hit, observable both through
// CacheStats and through pointer identity of the PreparedQuery.
func TestEngineCacheHit(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	q := MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")

	p1, err := e.Prepare(ctx, q, TW(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 0 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after first Prepare: %+v", s)
	}
	if p1.CandidatesInspected() == 0 {
		t.Fatal("first Prepare should have run the search")
	}

	p2, err := e.Prepare(ctx, q, TW(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("after second Prepare: %+v", s)
	}
	if p2.CandidatesInspected() != 0 {
		t.Fatalf("cache hit must inspect no candidates, got %d", p2.CandidatesInspected())
	}
	if p1.Approx().String() != p2.Approx().String() {
		t.Fatal("cache hit returned a different approximation")
	}

	// Alpha-renamed, atom-reordered variant of the same query: still a
	// hit thanks to canonical cache keying — but Query() echoes the
	// caller's own text, not the first-prepared variant's.
	q3 := MustParse("P(a) :- E(c,a), E(a,b), E(b,c)")
	p3, err := e.Prepare(ctx, q3, TW(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 2 {
		t.Fatalf("alpha-equivalent query must hit the cache, got %+v", s)
	}
	if p3.Query().String() != q3.String() {
		t.Fatalf("cache hit must echo the caller's query: got %v, want %v", p3.Query(), q3)
	}
	if p3.Approx().Name != "P_approx" || p3.Minimized().Name != "P" {
		t.Fatalf("cache hit must rename results after the caller's query: approx=%v minimized=%v",
			p3.Approx(), p3.Minimized())
	}
	// Deterministic rendering apart from the head name: variable names
	// are canonicalized at build time, so hit and miss agree.
	a1, a3 := p1.Approx(), p3.Approx()
	a3.Name = a1.Name
	if a1.String() != a3.String() {
		t.Fatalf("approximation rendering depends on preparation order: %v vs %v", a1, a3)
	}

	// Different class: a miss.
	if _, err := e.Prepare(ctx, q, TW(2)); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after TW(2) Prepare: %+v", s)
	}
}

func TestEnginePreparedEval(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	q := MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	p, err := e.Prepare(ctx, q, TW(1))
	if err != nil {
		t.Fatal(err)
	}
	if !Contained(p.Approx(), q) {
		t.Fatal("approximation not contained in q")
	}
	if p.PlanMode() != "yannakakis" {
		t.Fatalf("TW(1) approximation should be acyclic, plan = %s", p.PlanMode())
	}
	db := testDB()
	approx, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	exact := NaiveEval(q, db)
	for _, tup := range approx {
		if !exact.Contains(tup) {
			t.Fatalf("unsound answer %v", tup)
		}
	}
	ok, err := p.Bind(Borrow(db)).EvalBool(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ok != (len(approx) > 0) {
		t.Fatalf("EvalBool=%v but %d answers", ok, len(approx))
	}
}

// PrepareExact serves the unapproximated query through the same cached
// prepared surface.
func TestEnginePrepareExact(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	q := MustParse("Q(x,z) :- E(x,y), E(y,z)")
	p, err := e.PrepareExact(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Class() != nil || p.Approximations() != nil {
		t.Fatal("exact prepare must not approximate")
	}
	db := testDB()
	got, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	want := NaiveEval(q, db)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Same key → hit; also exercised by the free Eval wrapper.
	if _, err := e.PrepareExact(ctx, q); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 {
		t.Fatalf("want exact-prepare cache hit, got %+v", s)
	}
}

// Streaming answers must agree with materialised evaluation, support
// early break, and stop on cancellation.
func TestPreparedAnswersStreaming(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	q := MustParse("Q(x,z) :- E(x,y), E(y,z)")
	p, err := e.PrepareExact(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	db := testDB()
	want, err := p.Eval(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	n := 0
	for tup := range p.Bind(Borrow(db)).Answers(ctx) {
		if !want.Contains(tup) {
			t.Fatalf("streamed wrong answer %v", tup)
		}
		k := tup.String()
		if seen[k] {
			t.Fatalf("duplicate streamed answer %v", tup)
		}
		seen[k] = true
		n++
	}
	if n != len(want) {
		t.Fatalf("streamed %d answers, want %d", n, len(want))
	}
	// Early break must not hang or panic.
	for range p.Bind(Borrow(db)).Answers(ctx) {
		break
	}
	// A pre-cancelled context yields nothing, and AnswersErr
	// distinguishes that truncation from a genuinely empty answer set.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	seq2, errf := p.Bind(Borrow(db)).AnswersErr(canceled)
	for range seq2 {
		t.Fatal("cancelled stream must not yield")
	}
	if err := errf(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("truncated stream must report ErrCanceled, got %v", err)
	}
	seq3, errf3 := p.Bind(Borrow(db)).AnswersErr(ctx)
	for range seq3 {
	}
	if err := errf3(); err != nil {
		t.Fatalf("complete stream must report nil, got %v", err)
	}
}

// cancelAfterPolls is a context that cancels itself on the n-th call
// of its Err method. Every search layer polls Err, so it interrupts a
// search at a fixed point of its work instead of after a wall-clock
// delay the search might finish within.
type cancelAfterPolls struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
	at     atomic.Int64 // UnixNano of the cancel
}

func newCancelAfterPolls(n int64) *cancelAfterPolls {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelAfterPolls{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *cancelAfterPolls) Err() error {
	if c.left.Add(-1) == 0 {
		c.at.Store(time.Now().UnixNano())
		c.cancel()
	}
	return c.Context.Err()
}

// Cancellation mid-search must surface ErrCanceled promptly, and the
// failed Prepare must not poison the cache.
func TestPrepareCancellation(t *testing.T) {
	e := NewEngine(WithOptions(Options{MaxVars: 12}))
	// C9 against TW(1): a Bell(9)-sized candidate sweep that polls the
	// context once per partition (21147 of them) besides the polls of
	// its homomorphism searches, so the 1000th poll falls inside it.
	q := workload.CycleQuery(9)
	ctx := newCancelAfterPolls(1000)
	defer ctx.cancel()

	errc := make(chan error, 1)
	go func() {
		_, err := e.Prepare(ctx, q, TW(1))
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("want ErrCanceled, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cause should be context.Canceled: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation not observed within 5s")
	}
	if d := time.Since(time.Unix(0, ctx.at.Load())); d > 2*time.Second {
		t.Fatalf("cancellation took %v after cancel", d)
	}
	if s := e.CacheStats(); s.Entries != 0 {
		t.Fatalf("failed Prepare must not be cached: %+v", s)
	}

	// The engine stays usable after a cancelled search.
	p, err := e.Prepare(context.Background(), MustParse("Q() :- E(x,y), E(y,x)"), TW(1))
	if err != nil || p == nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
}

// deadlineAfterPolls is a context whose deadline expires on its n-th
// poll: from then on Err reports context.DeadlineExceeded and Done is
// closed. Polls, not wall time, decide when it fires, so the expiry
// lands inside a search however fast the host runs it.
type deadlineAfterPolls struct {
	context.Context
	left atomic.Int64
	once sync.Once
	done chan struct{}
}

func newDeadlineAfterPolls(n int64) *deadlineAfterPolls {
	c := &deadlineAfterPolls{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *deadlineAfterPolls) Done() <-chan struct{} { return c.done }

func (c *deadlineAfterPolls) Err() error {
	if c.left.Add(-1) > 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.DeadlineExceeded
}

// Deadline expiry maps to ErrCanceled too (with DeadlineExceeded as
// the cause).
func TestPrepareDeadline(t *testing.T) {
	e := NewEngine(WithOptions(Options{MaxVars: 12}))
	// The 1000th poll falls inside C9's Bell(9)-sized sweep against
	// TW(1) (see TestPrepareCancellation).
	_, err := e.Prepare(newDeadlineAfterPolls(1000), workload.CycleQuery(9), TW(1))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCanceled/DeadlineExceeded, got %v", err)
	}
}

// Concurrent Prepares of one key must run the search once; concurrent
// Evals must be race-free (run with -race).
func TestEngineConcurrent(t *testing.T) {
	e := NewEngine()
	q := MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")
	db := testDB()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			p, err := e.Prepare(ctx, q, TW(1))
			if err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 3; j++ {
				if _, err := p.Eval(ctx, db); err != nil {
					t.Error(err)
					return
				}
				for range p.Bind(Borrow(db)).Answers(ctx) {
				}
			}
		}()
	}
	wg.Wait()
	s := e.CacheStats()
	if s.Misses != 1 {
		t.Fatalf("concurrent Prepare ran the search %d times", s.Misses)
	}
	if s.Hits != 15 {
		t.Fatalf("want 15 hits, got %+v", s)
	}
}

func TestEngineCacheEviction(t *testing.T) {
	e := NewEngine(WithCacheCapacity(2))
	ctx := context.Background()
	for i := 2; i <= 4; i++ {
		if _, err := e.Prepare(ctx, workload.CycleQuery(i), TW(1)); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.CacheStats(); s.Entries != 2 || s.Misses != 3 {
		t.Fatalf("want 2 entries after eviction, got %+v", s)
	}
	// The first (evicted) query must re-run the search.
	if _, err := e.Prepare(ctx, workload.CycleQuery(2), TW(1)); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 4 {
		t.Fatalf("evicted entry should miss, got %+v", s)
	}
}

// Eviction is LRU, not FIFO: a recently-hit entry must survive an
// insertion that exceeds capacity, at the expense of the least recently
// used one.
func TestEngineCacheLRU(t *testing.T) {
	e := NewEngine(WithCacheCapacity(2))
	ctx := context.Background()
	qA, qB, qC := workload.CycleQuery(2), workload.CycleQuery(3), workload.CycleQuery(4)
	for _, q := range []*Query{qA, qB} {
		if _, err := e.Prepare(ctx, q, TW(1)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A: it becomes most recently used, so B is now the LRU
	// entry. Under FIFO, A (the oldest insertion) would be evicted
	// next regardless of this hit.
	if _, err := e.Prepare(ctx, qA, TW(1)); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("after touching A: %+v", s)
	}
	// Insert C: capacity 2 forces one eviction — B, not A.
	if _, err := e.Prepare(ctx, qC, TW(1)); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Entries != 2 || s.Misses != 3 {
		t.Fatalf("after inserting C: %+v", s)
	}
	if _, err := e.Prepare(ctx, qA, TW(1)); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Hits != 2 {
		t.Fatalf("recently-hit A must survive the eviction (FIFO would drop it): %+v", s)
	}
	if _, err := e.Prepare(ctx, qB, TW(1)); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 4 {
		t.Fatalf("least-recently-used B must have been evicted: %+v", s)
	}

	// Cached (the by-key lookup the server's eval-by-key path uses)
	// counts as a use too, and CacheKey agrees with Prepare's keying.
	key, err := e.CacheKey(qA, TW(1), e.Options())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cached(key); !ok {
		t.Fatal("Cached must find the entry Prepare stored")
	}
	if _, err := e.Prepare(ctx, workload.CycleQuery(5), TW(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cached(key); !ok {
		t.Fatal("Cached lookup must protect A from the next eviction")
	}
	hitsBefore := e.CacheStats().Hits
	if _, ok := e.Cached(key); !ok {
		t.Fatal("entry vanished")
	}
	if got := e.CacheStats().Hits; got != hitsBefore {
		t.Fatalf("Cached must not count as a Prepare hit: %d -> %d", hitsBefore, got)
	}
}

func TestTypedErrors(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()

	// Budget: an 11-variable query against the default MaxVars 10. The
	// refusal must be immediate — before minimization runs.
	big := workload.CycleQuery(11)
	start := time.Now()
	_, err := e.Prepare(ctx, big, TW(1))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("budget refusal took %v; must fail before any search", d)
	}

	// PrepareExact has no search to protect: an over-budget query still
	// prepares (unminimized) and evaluates like the plain Eval path.
	pe, err := e.PrepareExact(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pe.Minimized().String(), big.Rename().String(); got != want {
		t.Fatalf("over-budget exact prepare must skip minimization (canonically renamed): got %v, want %v", got, want)
	}
	if _, err := pe.Eval(ctx, testDB()); err != nil {
		t.Fatal(err)
	}

	// Parse errors carry positions.
	_, err = Parse("Q(x) :- E(x,")
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if perr.Offset != len("Q(x) :- E(x,") || perr.Line != 1 {
		t.Fatalf("bad position: %+v", perr)
	}
}

// The free functions must keep working as wrappers over the default
// engine — and therefore benefit from its cache.
func TestFreeFunctionsUseDefaultEngine(t *testing.T) {
	q := MustParse(fmt.Sprintf("Q(%s) :- E(%s,free1), E(free1,free2), E(free2,%s)", "free0", "free0", "free0"))
	before := Default().CacheStats()
	a1, err := Approximate(q, TW(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Approximate(q, TW(1), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(a1, a2) {
		t.Fatal("repeated Approximate disagrees")
	}
	after := Default().CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("second Approximate should hit the default cache: before %+v after %+v", before, after)
	}
}

// Index stats flow from the indexed runtime through the shared plan to
// PreparedQuery.IndexStats and, summed over the cache, to CacheStats.
func TestIndexStats(t *testing.T) {
	e := NewEngine()
	ctx := context.Background()
	q := MustParse("Q(x) :- E(x,y), E(y,z), E(z,x)")

	p, err := e.Prepare(ctx, q, TW(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := p.IndexStats(); s.Evals != 0 {
		t.Fatalf("stats before any Eval: %+v", s)
	}
	db := shiftOut(testDB()) // out of the dense key bound: the two-column step probes an index
	if _, err := p.Eval(ctx, db); err != nil {
		t.Fatal(err)
	}
	s1 := p.IndexStats()
	if s1.Evals != 1 || s1.IndexBuilds == 0 || s1.IndexProbes == 0 {
		t.Fatalf("stats after Eval: %+v", s1)
	}
	if _, err := p.Bind(Borrow(db)).EvalBool(ctx); err != nil {
		t.Fatal(err)
	}
	if s2 := p.IndexStats(); s2.Evals != 2 || s2.IndexBuilds <= s1.IndexBuilds {
		t.Fatalf("stats after EvalBool: %+v", s2)
	}

	// A cache hit shares the plan, so its evaluations accumulate on the
	// same counters; the engine's CacheStats sums the live cache.
	p2, err := e.Prepare(ctx, q, TW(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Eval(ctx, db); err != nil {
		t.Fatal(err)
	}
	if s := p.IndexStats(); s.Evals != 3 {
		t.Fatalf("shared plan should aggregate callers: %+v", s)
	}
	if cs := e.CacheStats(); cs.Indexes.Evals != 3 || cs.Indexes.IndexBuilds != p.IndexStats().IndexBuilds {
		t.Fatalf("engine cache stats: %+v", cs.Indexes)
	}
}

// One-column heads dedup and order their answers through a bitset while
// the values are small non-negative ids, and through a hash set and a
// sort from the first value that is not. Either way Eval must return
// NaiveEval's answers in its order, on acyclic and cyclic plans alike,
// with negative, huge and mixed ids.
func TestOneColumnEvalIDs(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	base := workload.EvalBenchDB(120)
	queries := []*Query{
		MustParse("Q(x) :- E(x,y), E(y,x)"),
		MustParse("Q(x) :- E(x,y), E(y,z)"),
		MustParse("Q(y) :- E(x,y), R1(y,z), R2(z,x)"),
	}
	var dbs []*Structure
	for _, lab := range []struct {
		name string
		f    func(int) int
	}{
		{"dense", func(v int) int { return v }},
		{"negative", func(v int) int { return -v - 1 }},
		{"huge", func(v int) int { return v + 1<<40 }},
		{"mixed", func(v int) int {
			switch v % 5 {
			case 0:
				return v + 1<<40
			case 1:
				return -v
			}
			return v
		}},
	} {
		db := NewStructure()
		for _, name := range base.Relations() {
			for _, tup := range base.Tuples(name) {
				db.Add(name, lab.f(tup[0]), lab.f(tup[1]))
			}
		}
		dbs = append(dbs, db)
	}
	// Mutual edges in search order: 1 and 5 are found in the bitset,
	// 2^40 moves them into the hash set, and 1 and -3 come after it.
	spill := NewStructure()
	for _, e := range [][2]int{{1, 5}, {5, 1}, {1 << 40, 7}, {7, 1 << 40}, {1, 6}, {6, 1}, {-3, 1}, {1, -3}} {
		spill.Add("E", e[0], e[1])
		spill.Add("R1", e[0], e[1])
		spill.Add("R2", e[0], e[0]) // the triangle query closes on loops
	}
	for _, db := range append(dbs, spill) {
		for _, q := range queries {
			p, err := e.PrepareExact(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Eval(ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			want := NaiveEval(q, db)
			if len(want) == 0 {
				t.Fatalf("db %d %v: no answers", len(dbs), q)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%v: Eval = %v\nwant %v", q, got, want)
			}
		}
	}
}
