package cqapprox

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cqapprox/internal/core"
	"cqapprox/internal/cqerr"
	"cqapprox/internal/eval"
	"cqapprox/internal/hom"
	"cqapprox/internal/obs"
)

// Engine is the long-lived entry point for services: it owns a cache of
// prepared queries keyed by the canonical form of (query, class,
// options), so the expensive static work — minimization and the
// Bell-number approximation search — is paid once per distinct query
// and every later Prepare of an equivalent query is a map lookup.
//
// An Engine is safe for concurrent use. Concurrent Prepares of the same
// key are deduplicated: one goroutine runs the search, the others wait
// for its result (unless their own context expires first).
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	opt        Options // search defaults used by Prepare
	maxEntries int     // cache capacity; least-recently-used evicted beyond it
	par        int     // default evaluation worker budget (≤1 = serial); see WithParallelism

	mu      sync.Mutex
	cache   map[string]*list.Element // key → element in lru (Value: *cacheEntry)
	lru     *list.List               // front = most recently used
	pending map[string]*inflight
	hits    uint64
	misses  uint64

	// keyMemo maps a cheap syntactic normal form of (q, c, opt) to the
	// expensive canonical cache key, so repeated Prepares of a
	// syntactically identical query (the free Eval wrapper's hot path)
	// skip the canonical-form search. Pure accelerator: a memo miss
	// just recomputes; entries stay valid across ResetCache. Bounded
	// like the cache, with its own LRU list.
	keyMemo map[string]*list.Element // syn → element in memoLRU (Value: *memoEntry)
	memoLRU *list.List

	// The database registry: named snapshots with persistent shared
	// indexes (see RegisterDB in db.go). Bounded by maxDBs with LRU
	// eviction. Guarded by its own mutex so registry traffic never
	// stalls prepare-cache hits or vice versa. An UpdateDB fork under
	// it costs the delta (plus, once the delta's relations pass their
	// compaction share, a copy of their live rows), not the relation.
	dbMu         sync.Mutex
	maxDBs       int
	dbs          map[string]*list.Element // name → element in dbLRU (Value: *dbEntry)
	dbLRU        *list.List
	dbHits       uint64
	dbMisses     uint64
	dbRegistered uint64
	dbUpdates    uint64
	dbEvictions  uint64
}

// cacheEntry is the value stored in the cache's LRU list.
type cacheEntry struct {
	key string
	p   *PreparedQuery
}

// memoEntry is the value stored in the key memo's LRU list.
type memoEntry struct {
	syn string // syntactic normal form (memo key)
	key string // canonical cache key
}

// inflight tracks one in-progress Prepare so concurrent callers of the
// same key wait instead of duplicating the search.
type inflight struct {
	done chan struct{}
	p    *PreparedQuery
	err  error
}

// EngineOption configures NewEngine.
type EngineOption func(*Engine)

// WithOptions sets the approximation-search options Prepare uses
// (PrepareOpt overrides them per call).
func WithOptions(opt Options) EngineOption {
	return func(e *Engine) { e.opt = opt }
}

// WithCacheCapacity bounds the number of cached prepared queries;
// beyond it the least-recently-used entry is evicted. n <= 0 means
// unbounded.
func WithCacheCapacity(n int) EngineOption {
	return func(e *Engine) { e.maxEntries = n }
}

// WithParallelism sets the engine's default evaluation worker budget:
// every PreparedQuery the engine hands out evaluates morsel-driven
// parallel on up to n workers unless a call overrides it with
// WithEvalParallelism.
// n <= 1 (the NewEngine default) keeps evaluations serial — the right
// choice for servers running many evaluations concurrently; a budget
// helps latency when single evaluations over large databases have
// cores to themselves. Answers are identical either way.
func WithParallelism(n int) EngineOption {
	return func(e *Engine) { e.par = n }
}

// DefaultCacheCapacity is the prepared-query cache bound of NewEngine
// unless overridden with WithCacheCapacity.
const DefaultCacheCapacity = 1024

// NewEngine returns an Engine with the documented search defaults and a
// cache bounded at DefaultCacheCapacity entries.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{
		opt:        DefaultOptions(),
		maxEntries: DefaultCacheCapacity,
		maxDBs:     DefaultDBCapacity,
		cache:      map[string]*list.Element{},
		lru:        list.New(),
		pending:    map[string]*inflight{},
		keyMemo:    map[string]*list.Element{},
		memoLRU:    list.New(),
	}
	e.newDBRegistry()
	for _, o := range opts {
		o(e)
	}
	return e
}

// defaultEngine backs the package-level free functions.
var defaultEngine = NewEngine()

// Default returns the process-wide engine used by the package-level
// Approximate/Eval free functions. Services should prefer their own
// NewEngine so cache capacity and options are under their control.
func Default() *Engine { return defaultEngine }

// Options returns the engine's configured search defaults (the options
// Prepare and PrepareExact use when none are given explicitly).
func (e *Engine) Options() Options { return e.opt }

// CacheStats is a snapshot of an engine's cache counters.
type CacheStats struct {
	Hits    uint64 // Prepares answered without re-running the search
	Misses  uint64 // Prepares that ran the full pipeline
	Entries int    // prepared queries currently cached

	// Indexes sums the indexed join runtime's counters over every
	// currently cached plan: hash indexes built over databases, rows
	// driven through index probes, and evaluations run. Counters of
	// evicted entries leave the sum with them — like Entries, this is
	// a view of the live cache, not an eternal total.
	Indexes IndexStats
}

// CacheStats returns a snapshot of the cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := CacheStats{Hits: e.hits, Misses: e.misses, Entries: len(e.cache)}
	for el := e.lru.Front(); el != nil; el = el.Next() {
		is := el.Value.(*cacheEntry).p.IndexStats()
		s.Indexes.IndexBuilds += is.IndexBuilds
		s.Indexes.IndexProbes += is.IndexProbes
		s.Indexes.Evals += is.Evals
		s.Indexes.ParallelEvals += is.ParallelEvals
		s.Indexes.RankedEvals += is.RankedEvals
		s.Indexes.RankFallbacks += is.RankFallbacks
		s.Indexes.ExactCounts += is.ExactCounts
		s.Indexes.EstimatedCounts += is.EstimatedCounts
		s.Indexes.SampleBatches += is.SampleBatches
		s.Indexes.IncrementalEvals += is.IncrementalEvals
		s.Indexes.IncrFallbacks += is.IncrFallbacks
	}
	return s
}

// ResetCache drops every cached prepared query and zeroes the
// prepare-cache hit/miss counters — nothing else. Two things
// deliberately survive: the syntactic key memo (a pure accelerator
// whose entries stay valid — see keyMemo) and the database registry
// with its snapshots, warm indexes and counters (registered data is
// not cache; dropping it would break eval-by-name callers). In-flight
// Prepares are unaffected (they re-insert on completion). Use ResetAll
// to clear the memo and the registry too.
func (e *Engine) ResetCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = map[string]*list.Element{}
	e.lru = list.New()
	e.hits, e.misses = 0, 0
}

// ResetAll is ResetCache plus everything it leaves behind: the
// syntactic key memo is emptied and the database registry is cleared
// — every registration dropped, all registry counters zeroed.
// Snapshots already handed out remain valid (they own their data);
// only the engine forgets them. In-flight Prepares still re-insert on
// completion.
func (e *Engine) ResetAll() {
	e.mu.Lock()
	e.cache = map[string]*list.Element{}
	e.lru = list.New()
	e.hits, e.misses = 0, 0
	e.keyMemo = map[string]*list.Element{}
	e.memoLRU = list.New()
	e.mu.Unlock()

	e.dbMu.Lock()
	e.dbs = map[string]*list.Element{}
	e.dbLRU = list.New()
	e.dbHits, e.dbMisses, e.dbRegistered, e.dbUpdates, e.dbEvictions = 0, 0, 0, 0, 0
	e.dbMu.Unlock()
}

// CacheKey returns the cache key Prepare uses for (q, c, opt): a stable
// identifier for the prepared query, equal across alpha-equivalent
// inputs. A nil c keys the exact (unapproximated) preparation, matching
// PrepareExact called with the engine's default options (see Options).
// The key is an opaque byte string — transport layers should encode it
// (e.g. base64) before putting it on a wire.
//
// Over-budget class inputs are refused with ErrBudgetExceeded exactly
// as Prepare refuses them — before any canonical-form work is spent on
// a query the search would reject anyway.
func (e *Engine) CacheKey(q *Query, c Class, opt Options) (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	if err := budgetCheck(q, c, opt); err != nil {
		return "", err
	}
	return e.memoizedKey(q, c, opt), nil
}

// budgetCheck is the shared up-front MaxVars refusal for class
// preparations: the Bell-number search (and even keying work) must not
// start on inputs it would refuse. Exact preparations pass — they have
// no search to protect and deliberately stay usable over budget.
func budgetCheck(q *Query, c Class, opt Options) error {
	if c == nil {
		return nil
	}
	if n, max := q.NumVars(), opt.WithDefaults().MaxVars; n > max {
		return core.BudgetError(n, max)
	}
	return nil
}

// Cached returns the prepared query stored under key (as returned by
// CacheKey), if any. A found entry counts as a use for LRU eviction but
// not as a cache hit in CacheStats — only Prepare records hits. Note
// the returned PreparedQuery carries the first preparer's query
// identity; use Prepare when the caller's own query text matters.
func (e *Engine) Cached(key string) (*PreparedQuery, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.cache[key]
	if !ok {
		return nil, false
	}
	e.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).p, true
}

// Prepare runs the full static pipeline for q once — validate,
// minimize, search for the C-approximation, choose an evaluation plan —
// and returns a PreparedQuery that evaluates the approximation on any
// database via Eval/EvalBool/Answers. Results are cached: preparing a
// query equal up to variable renaming and atom order (same class and
// options) is a cache hit and skips the search entirely.
//
// ctx cancels the search mid-way with an ErrCanceled-wrapped error;
// cancellation is polled inside the candidate sweep and the
// homomorphism searches, so it is observed promptly even on large
// inputs.
func (e *Engine) Prepare(ctx context.Context, q *Query, c Class) (*PreparedQuery, error) {
	return e.PrepareOpt(ctx, q, c, e.opt)
}

// PrepareOpt is Prepare with explicit search options.
func (e *Engine) PrepareOpt(ctx context.Context, q *Query, c Class, opt Options) (*PreparedQuery, error) {
	if c == nil {
		return nil, fmt.Errorf("cqapprox: Prepare requires a class (use PrepareExact for plain evaluation)")
	}
	return e.prepare(ctx, q, c, opt)
}

// PrepareExact prepares q for evaluation as-is, with no approximation:
// the pipeline is validate → minimize → plan. Use it to serve the exact
// query through the same cached, context-aware, streaming surface.
func (e *Engine) PrepareExact(ctx context.Context, q *Query) (*PreparedQuery, error) {
	return e.prepare(ctx, q, nil, e.opt)
}

// The cache key for (q, c, opt) — built in memoizedKey — pairs the
// query's canonical form (CanonicalKey: equal iff alpha-equivalent)
// with the class identified by concrete type plus Name() (so distinct
// Class implementations sharing a display name never share entries;
// within one type, Name() must identify the class's semantics — see
// core.Class) and the options normalized by core's own rule (values
// core treats identically, e.g. MaxVars 0 vs the default, collide).

// memoizedKey returns the canonical cache key for (q, c, opt), going
// through the syntactic-key memo: only the first Prepare of each
// syntactic form pays the canonical-form search. The memo is bounded at
// four times the cache capacity with LRU eviction.
func (e *Engine) memoizedKey(q *Query, c Class, opt Options) string {
	class := "exact"
	if c != nil {
		class = fmt.Sprintf("%T:%s", c, c.Name())
	}
	opt = opt.WithDefaults()
	syn := fmt.Sprintf("%s\x00%s\x00%d/%d/%d",
		synNormalForm(q), class, opt.MaxVars, opt.MaxExtraAtoms, opt.FreshVars)
	e.mu.Lock()
	if el, ok := e.keyMemo[syn]; ok {
		e.memoLRU.MoveToFront(el)
		k := el.Value.(*memoEntry).key
		e.mu.Unlock()
		return k
	}
	e.mu.Unlock()
	key := fmt.Sprintf("%s\x00%s\x00%d/%d/%d",
		q.CanonicalKey(), class, opt.MaxVars, opt.MaxExtraAtoms, opt.FreshVars)
	e.mu.Lock()
	if _, ok := e.keyMemo[syn]; !ok {
		e.keyMemo[syn] = e.memoLRU.PushFront(&memoEntry{syn: syn, key: key})
		for limit := 4 * e.maxEntries; e.maxEntries > 0 && len(e.keyMemo) > limit; {
			back := e.memoLRU.Back()
			e.memoLRU.Remove(back)
			delete(e.keyMemo, back.Value.(*memoEntry).syn)
		}
	}
	e.mu.Unlock()
	return key
}

// synNormalForm is the cheap first-level key: variables renamed by
// first occurrence, atoms sorted, head name dropped. Not invariant
// under atom reordering (that is CanonicalKey's job) — merely a fast
// discriminator for byte-identical repeat queries.
func synNormalForm(q *Query) string {
	n := q.Rename() // returns a fresh copy; safe to overwrite the name
	n.Name = "Q"
	return n.SortAtoms().String()
}

func (e *Engine) prepare(ctx context.Context, q *Query, c Class, opt Options) (*PreparedQuery, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, cqerr.Canceled(ctx)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Refuse over-budget class inputs before the canonical-key work:
	// the search would refuse them anyway, and keying is not free.
	if err := budgetCheck(q, c, opt); err != nil {
		return nil, err
	}
	key := e.memoizedKey(q, c, opt)
	for {
		e.mu.Lock()
		if el, ok := e.cache[key]; ok {
			e.lru.MoveToFront(el)
			e.hits++
			p := el.Value.(*cacheEntry).p
			e.mu.Unlock()
			return p.forCaller(q), nil
		}
		if fl, ok := e.pending[key]; ok {
			e.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, cqerr.Canceled(ctx)
			}
			if fl.err == nil && fl.p != nil {
				e.mu.Lock()
				e.hits++
				e.mu.Unlock()
				return fl.p.forCaller(q), nil
			}
			// The leader failed. If it failed because of *its* context
			// we retry (ours may still be live); a genuine error is
			// shared by everyone waiting.
			if fl.err == nil || errIsCanceled(fl.err) {
				if ctx.Err() != nil {
					return nil, cqerr.Canceled(ctx)
				}
				continue
			}
			return nil, fl.err
		}
		fl := &inflight{done: make(chan struct{})}
		e.pending[key] = fl
		e.misses++
		e.mu.Unlock()

		// Run the pipeline panic-safely: whatever happens, the pending
		// entry is removed and fl.done closed, so waiters never block on
		// a leader that died. A panic re-raises after cleanup; waiters
		// see (nil, nil) and retry as leaders themselves.
		func() {
			defer func() {
				e.mu.Lock()
				delete(e.pending, key)
				if fl.err == nil && fl.p != nil {
					e.insertLocked(key, fl.p)
				}
				e.mu.Unlock()
				close(fl.done)
			}()
			fl.p, fl.err = e.build(ctx, q, c, opt)
		}()
		return fl.p, fl.err
	}
}

// insertLocked adds a cache entry as most-recently-used, evicting the
// least-recently-used beyond capacity. Callers hold e.mu.
func (e *Engine) insertLocked(key string, p *PreparedQuery) {
	if el, ok := e.cache[key]; ok {
		el.Value.(*cacheEntry).p = p
		e.lru.MoveToFront(el)
		return
	}
	e.cache[key] = e.lru.PushFront(&cacheEntry{key: key, p: p})
	for e.maxEntries > 0 && len(e.cache) > e.maxEntries {
		back := e.lru.Back()
		e.lru.Remove(back)
		delete(e.cache, back.Value.(*cacheEntry).key)
	}
}

// build runs the uncached pipeline: minimize, approximate (unless
// exact), plan.
func (e *Engine) build(ctx context.Context, q *Query, c Class, opt Options) (*PreparedQuery, error) {
	// Enforce the variable budget before minimization: minimization
	// itself runs exponential homomorphism searches, so an over-budget
	// query must be refused up front, exactly as core.Approximate does.
	// Exact prepares have no search to protect, but skip minimizing
	// over-budget queries too — the plain plan evaluates q as given,
	// matching the pre-engine Eval behavior.
	maxVars := opt.WithDefaults().MaxVars
	if n := q.NumVars(); n > maxVars {
		if c != nil {
			return nil, core.BudgetError(n, maxVars)
		}
		min := q.Rename() // canonical variable names, like the normal path
		min.Name = q.Name
		p := &PreparedQuery{src: q.Clone(), min: min, opt: opt, par: e.par}
		p.chosen = p.min
		t0 := time.Now()
		p.plan = eval.NewPlan(p.chosen)
		p.prep = []obs.Phase{{Name: "plan", NS: time.Since(t0).Nanoseconds()}}
		return p, nil
	}
	t0 := time.Now()
	min, err := hom.MinimizeCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	minimizeNS := time.Since(t0).Nanoseconds()
	// Canonicalize the minimized query's variable names so a cached
	// entry carries nothing of the first preparer's identity: every
	// caller (after forCaller rebinds the head name) sees the same
	// deterministic rendering regardless of preparation order.
	min = min.Rename()
	min.Name = q.Name
	p := &PreparedQuery{
		src:   q.Clone(),
		min:   min,
		class: c,
		opt:   opt,
		par:   e.par,
	}
	p.prep = []obs.Phase{{Name: "minimize", NS: minimizeNS}}
	target := min
	if c != nil {
		t0 = time.Now()
		res, err := core.ApproximationsWithStatsCtx(ctx, min, c, opt)
		if err != nil {
			return nil, err
		}
		if len(res.Queries) == 0 {
			return nil, fmt.Errorf("cqapprox: no %s-query is contained in %v: %w", c.Name(), q, cqerr.ErrNotInClass)
		}
		p.prep = append(p.prep, obs.Phase{Name: "search", NS: time.Since(t0).Nanoseconds()})
		p.approxes = res.Queries
		p.inspected = res.CandidatesInspected
		target = res.Queries[0]
	}
	p.chosen = target
	t0 = time.Now()
	p.plan = eval.NewPlan(target)
	p.prep = append(p.prep, obs.Phase{Name: "plan", NS: time.Since(t0).Nanoseconds()})
	return p, nil
}

// errIsCanceled reports whether err wraps the cancellation sentinel.
func errIsCanceled(err error) bool {
	return errors.Is(err, cqerr.ErrCanceled)
}
